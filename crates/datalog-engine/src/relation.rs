//! Tuple storage for one predicate: append-only rows, duplicate
//! elimination, and composite indices over column sets.
//!
//! Rows are append-only and keep insertion order, which is what lets
//! semi-naive evaluation address "the delta" as a contiguous row-id range.
//! They live arity-strided in one flat [`Rows`] store, the only full copy
//! of any tuple. Beside them sit [`KeyIndex`]es (see [`crate::storage`]),
//! the row ids grouped by key, used three ways:
//!
//! - **dedup** is one over all columns in which a key never gets a second
//!   id. It sits behind a `OnceLock` and is built over the stored rows by
//!   the first [`Relation::insert`] or [`Relation::contains`] that needs
//!   it: a relation filled by one sorted [`Relation::load_batch`] had its
//!   duplicates dropped by that order, and an EDB relation that nothing
//!   inserts into or tests never builds one;
//! - each **planned join index** is one over its probe columns, built by
//!   [`Relation::ensure_index`] right before the first join variant whose
//!   order probes it enumerates. A probe ([`Relation::probe_range`]) is a
//!   `&self` operation, so a fixpoint iteration enumerates against a
//!   frozen relation and only its merge mutates it;
//! - each **read index** is a one-column one, created lazily behind a
//!   `OnceLock` by the first read that binds that column to a constant and
//!   is allowed to create it ([`Relation::select`] with `create`), so a
//!   read keeps `&self`. A column has at most one index: a planned `[col]`
//!   index serves reads too, and planning one takes over the read index.
//!
//! [`Relation::insert`] maintains every index that exists, so each covers
//! every row (the dedup too, once built): nothing is sealed, merged or
//! folded, and a probe's ids in `[start, end)` are ascending — what a
//! filtered scan of [`Relation::rows_in`] finds, the reference the tests
//! hold every index to ([`crate::oracle::check_indexes`]). The same
//! structure holds the server's shared EDB ([`crate::shared`]), so a tuple
//! is deduplicated by one piece of code whether it arrives by `FACT`, by
//! recovery or from a fixpoint.

use std::cmp::Ordering;
use std::sync::OnceLock;

use datalog_ast::Value;

use crate::storage::{self, KeyIndex, Rows};

/// A stored relation. See the module docs for the storage contract.
#[derive(Debug, Clone)]
pub struct Relation {
    rows: Rows,
    /// All columns, one id per key; built on first need.
    dedup: OnceLock<KeyIndex>,
    /// The planned join indexes, one per column set.
    indices: Vec<KeyIndex>,
    /// One lazily filled read index per column.
    read: Box<[OnceLock<KeyIndex>]>,
}

impl Relation {
    /// New empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            rows: Rows::new(arity),
            dedup: OnceLock::new(),
            indices: Vec::new(),
            read: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.rows.arity()
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new. A new row goes into
    /// every index that exists.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch; callers validate arities upfront.
    pub fn insert(&mut self, tuple: &[Value]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity(), "relation arity mismatch");
        let id = u32::try_from(self.rows.len()).expect("row ids fit in 31 bits");
        // Built over the rows held so far, before this one joins them.
        self.dedup();
        self.rows.push(tuple);
        let dedup = self.dedup.get_mut().expect("built above");
        if !dedup.insert(&self.rows, id) {
            self.rows.pop();
            return false;
        }
        for index in &mut self.indices {
            index.insert(&self.rows, id);
        }
        for slot in self.read.iter_mut() {
            if let Some(index) = slot.get_mut() {
                index.insert(&self.rows, id);
            }
        }
        true
    }

    /// Insert a batch of rows — slices of a caller's flat rows — in batch
    /// order; returns the number of new rows. First sightings are kept, so
    /// the ids are those that inserting the rows one by one gives.
    ///
    /// Into an empty relation with no index, rows that arrive in tuple
    /// order are appended with adjacent repeats dropped, and no dedup is
    /// built: the order has already put every duplicate beside its first
    /// sighting. From the first row out of order on — or from the start,
    /// when the relation holds rows or an index — rows go through
    /// [`Relation::insert`], which builds the dedup over what is held.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch; callers validate arities upfront.
    pub fn load_batch<'a>(&mut self, batch: impl IntoIterator<Item = &'a [Value]>) -> usize {
        let before = self.rows.len();
        let mut batch = batch.into_iter();
        let bare = self.rows.is_empty()
            && self.dedup.get().is_none()
            && self.indices.is_empty()
            && self.read.iter().all(|slot| slot.get().is_none());
        if bare {
            for row in batch.by_ref() {
                debug_assert_eq!(row.len(), self.arity(), "relation arity mismatch");
                let last = self.rows.len().checked_sub(1).map(|id| self.rows.row(id));
                match last.map(|last| last.cmp(row)) {
                    None | Some(Ordering::Less) => self.rows.push(row),
                    Some(Ordering::Equal) => {}
                    Some(Ordering::Greater) => {
                        self.insert(row);
                        break;
                    }
                }
            }
        }
        for row in batch {
            self.insert(row);
        }
        self.rows.len() - before
    }

    /// Drop every row, keeping the planned index column sets (empty) and
    /// emptying the read indexes: the relation is as new, except that the
    /// join orders' indexes need no planning again.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.dedup.take();
        for index in &mut self.indices {
            index.clear();
        }
        for slot in self.read.iter_mut() {
            slot.take();
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        !self.dedup().get(&self.rows, tuple).is_empty()
    }

    /// The dedup, built over the stored rows the first time it is asked
    /// for. Stored rows are distinct whether or not it was built, so the
    /// build keeps every one of them under its own id.
    fn dedup(&self) -> &KeyIndex {
        self.dedup
            .get_or_init(|| KeyIndex::unique(self.arity()).filled(&self.rows))
    }

    /// Row by id.
    pub fn row(&self, id: usize) -> &[Value] {
        self.rows.row(id)
    }

    /// The rows `[0, end)` as one arity-strided slice.
    pub fn values_to(&self, end: usize) -> &[Value] {
        self.rows.values_to(end)
    }

    /// Iterate rows in the id range `[start, end)`.
    pub fn rows_in(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, &[Value])> {
        (start..end).zip(self.rows.range(start, end))
    }

    /// Does nothing: every index covers every row as it is inserted. Kept
    /// for callers written against sorted-run storage.
    pub fn seal(&mut self) {}

    /// Does nothing, like [`Relation::seal`].
    pub fn consolidate(&mut self) {}

    /// Heap bytes held beside the row store, by capacity: the dedup once
    /// built, the planned indexes and the read indexes.
    pub fn overhead_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let read = self.read.iter().filter_map(OnceLock::get);
        let built = self.dedup.get().into_iter().chain(&self.indices);
        let indexes: usize = built.chain(read).map(KeyIndex::bytes).sum();
        indexes
            + self.indices.capacity() * size_of::<KeyIndex>()
            + self.read.len() * size_of::<OnceLock<KeyIndex>>()
    }

    /// Build the index over the column set `cols` if it does not exist yet.
    /// `cols` must be non-empty, strictly ascending, and within the arity.
    /// Once built, the index is maintained by `insert`.
    ///
    /// A single-column index takes over that column's read index when
    /// there is one. Otherwise an index planned over stored rows is built
    /// over them, and the build is counted in the process-wide storage
    /// telemetry.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty(), "index over the empty column set");
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not sorted");
        debug_assert!(
            cols.iter().all(|&c| c < self.arity()),
            "column out of range"
        );
        if self.has_index(cols) {
            return;
        }
        let taken = match cols {
            [col] => self.read[*col].take(),
            _ => None,
        };
        let index = taken.unwrap_or_else(|| {
            if !self.rows.is_empty() {
                storage::note_index_rebuild();
            }
            KeyIndex::build(&self.rows, cols)
        });
        self.indices.push(index);
    }

    fn index(&self, cols: &[usize]) -> Option<&KeyIndex> {
        self.indices.iter().find(|index| index.cols() == cols)
    }

    /// Ids of rows in `[start, end)` whose projection onto `cols` equals
    /// `key`, in ascending id order: the slice of the key's group that the
    /// range bounds, found by binary search.
    ///
    /// The index over `cols` must have been built with
    /// [`Relation::ensure_index`]; probing is read-only so a frozen
    /// relation can be shared across threads.
    ///
    /// # Panics
    /// Panics if no index over `cols` exists.
    pub fn probe_range(&self, cols: &[usize], key: &[Value], start: usize, end: usize) -> &[u32] {
        let group = self
            .index(cols)
            .unwrap_or_else(|| panic!("probe_range over unplanned index {cols:?}"))
            .get(&self.rows, key);
        let a = group.partition_point(|&id| (id as usize) < start);
        let b = a + group[a..].partition_point(|&id| (id as usize) < end);
        &group[a..b]
    }

    /// Whether an index over the column set `cols` has been planned.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.index(cols).is_some()
    }

    /// The column sets of the planned indexes, in ascending order.
    pub fn index_columns(&self) -> Vec<&[usize]> {
        let mut cols: Vec<&[usize]> = self.indices.iter().map(KeyIndex::cols).collect();
        cols.sort_unstable();
        cols
    }

    /// Whether column `col`'s read index is filled. Separate from
    /// [`Relation::has_index`], which answers for planned indexes only.
    pub fn has_read_index(&self, col: usize) -> bool {
        self.read[col].get().is_some()
    }

    /// How many rows column `col`'s read index holds — every row, once it
    /// is filled — or `None` while it is empty.
    pub fn read_index_covered(&self, col: usize) -> Option<usize> {
        Some(self.read[col].get()?.len())
    }

    /// Narrow a read through an index: given the `(column, constant)`
    /// pairs a read binds, visit every row that agrees with **one** of
    /// them — the first whose column has a planned `[col]` index or a
    /// filled read index — and return `true`. The caller still applies all
    /// its filters to what it is shown. When no bound column is indexed,
    /// `create` decides: a reader that keeps the relation (a resident
    /// form) fills the read index of the first bound column and probes it;
    /// one that reads once (a cold evaluation's extraction) gets `false`,
    /// having visited nothing, and scans — indexing a relation costs more
    /// than one pass over it.
    ///
    /// Rows are visited in ascending id order.
    pub fn select<'a>(
        &'a self,
        bound: &[(usize, Value)],
        create: bool,
        mut visit: impl FnMut(&'a [Value]),
    ) -> bool {
        let indexed = |col: usize| self.index(&[col]).or_else(|| self.read[col].get());
        let picked = bound
            .iter()
            .find_map(|&(col, key)| Some((indexed(col)?, key)))
            .or_else(|| {
                let &(col, key) = bound.first().filter(|_| create)?;
                let index = self.read[col].get_or_init(|| KeyIndex::build(&self.rows, &[col]));
                Some((index, key))
            });
        let Some((index, key)) = picked else {
            return false;
        };
        for &id in index.get(&self.rows, &[key]) {
            visit(self.rows.row(id as usize));
        }
        true
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.range(0, self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use std::collections::HashSet;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(&t(&[1, 2])));
        assert!(!r.insert(&t(&[1, 2])));
        assert!(r.insert(&t(&[2, 1])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[3, 3])));
    }

    #[test]
    fn rows_keep_insertion_order() {
        let mut r = Relation::new(1);
        for i in 0..5 {
            r.insert(&t(&[i]));
        }
        let ids: Vec<usize> = r.rows_in(2, 5).map(|(i, _)| i).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(r.row(3), &t(&[3])[..]);
    }

    #[test]
    fn ensure_index_builds_then_insert_maintains() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1, 10]));
        r.insert(&t(&[2, 20]));
        r.insert(&t(&[1, 30]));
        assert!(!r.has_index(&[0]));
        r.ensure_index(&[0]);
        assert!(r.has_index(&[0]));
        let hits = r.probe_range(&[0], &t(&[1]), 0, 3);
        assert_eq!(hits.to_vec(), vec![0, 2]);
        // Insert after index creation: index must stay in sync.
        r.insert(&t(&[1, 40]));
        let hits = r.probe_range(&[0], &t(&[1]), 0, 4);
        assert_eq!(hits.to_vec(), vec![0, 2, 3]);
        // Probing a missing value yields nothing.
        assert!(r.probe_range(&[0], &t(&[9]), 0, 4).is_empty());
    }

    #[test]
    fn probe_range_binary_searches_the_bounds() {
        let mut r = Relation::new(2);
        // Rows 0..8; even row ids carry key 7.
        for i in 0..8 {
            r.insert(&t(&[if i % 2 == 0 { 7 } else { 1 }, i]));
        }
        r.ensure_index(&[0]);
        let key = t(&[7]);
        // Full range: all even ids.
        assert_eq!(r.probe_range(&[0], &key, 0, 8).to_vec(), vec![0, 2, 4, 6]);
        // A delta range strictly inside: only the hits within it.
        assert_eq!(r.probe_range(&[0], &key, 2, 6).to_vec(), vec![2, 4]);
        // Boundaries are half-open: start is inclusive, end exclusive.
        assert_eq!(r.probe_range(&[0], &key, 2, 7).to_vec(), vec![2, 4, 6]);
        assert_eq!(r.probe_range(&[0], &key, 3, 6).to_vec(), vec![4]);
        // Ranges touching the ends and empty ranges.
        assert_eq!(r.probe_range(&[0], &key, 6, 8).to_vec(), vec![6]);
        assert!(r.probe_range(&[0], &key, 7, 8).is_empty());
        assert!(r.probe_range(&[0], &key, 4, 4).is_empty());
    }

    #[test]
    fn composite_index_probes_all_bound_columns() {
        let mut r = Relation::new(3);
        r.insert(&t(&[1, 5, 9]));
        r.insert(&t(&[1, 6, 9]));
        r.insert(&t(&[1, 5, 8]));
        r.insert(&t(&[2, 5, 9]));
        r.ensure_index(&[0, 2]);
        assert!(r.has_index(&[0, 2]));
        assert!(!r.has_index(&[0]));
        assert_eq!(
            r.probe_range(&[0, 2], &t(&[1, 9]), 0, 4).to_vec(),
            vec![0, 1]
        );
        assert_eq!(r.probe_range(&[0, 2], &t(&[2, 9]), 0, 4).to_vec(), vec![3]);
        assert!(r.probe_range(&[0, 2], &t(&[2, 8]), 0, 4).is_empty());
        // The composite index stays fresh across inserts too.
        r.insert(&t(&[1, 7, 9]));
        assert_eq!(
            r.probe_range(&[0, 2], &t(&[1, 9]), 0, 5).to_vec(),
            vec![0, 1, 4]
        );
    }

    #[test]
    fn zero_arity_relation_holds_one_row() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn sealing_preserves_probe_results_and_order() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        let mut expect: Vec<u32> = Vec::new();
        // Seals between inserts are no-ops: probes see every row either way.
        for i in 0..300i64 {
            if r.insert(&t(&[i % 5, i])) && i % 5 == 2 {
                expect.push(i as u32);
            }
            if i % 37 == 0 {
                r.seal();
            }
        }
        let key = t(&[2]);
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        // Delta subranges stay exact.
        let sub: Vec<u32> = expect
            .iter()
            .copied()
            .filter(|&i| (40..200).contains(&(i as usize)))
            .collect();
        assert_eq!(r.probe_range(&[0], &key, 40, 200).to_vec(), sub);
        r.seal();
        r.consolidate();
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        for i in 0..300i64 {
            assert!(r.contains(&t(&[i % 5, i])));
        }
        assert!(!r.contains(&t(&[7, 7])));
    }

    /// A seeded xorshift generator for the property tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        /// A tuple over a domain small enough to repeat itself.
        fn tuple(&mut self) -> Vec<Value> {
            t(&[
                self.below(50) as i64,
                self.below(6) as i64,
                self.below(20) as i64,
            ])
        }
    }

    /// The store against a scan of its own rows: every planned index over
    /// empty, interior, full and random id ranges ([`oracle::check_indexes`]),
    /// `contains` against membership in the rows for tuples that may or may
    /// not be stored, and `select` on every column for a stored and an
    /// absent key against the rows holding that key.
    fn check_against_scan(r: &Relation, rng: &mut Rng, step: &str) {
        let n = r.len();
        let a = rng.below(n as u64 + 1) as usize;
        let b = a + rng.below((n - a) as u64 + 1) as usize;
        let ranges = [
            (0, n),
            (0, 0),
            (n / 2, n / 2),
            (n / 3, 2 * n / 3),
            (n.saturating_sub(5), n),
            (a, b),
        ];
        if let Err(e) = oracle::check_indexes(r, &ranges) {
            panic!("{step}: {e}");
        }
        let stored: HashSet<&[Value]> = r.iter().collect();
        for _ in 0..32 {
            let tuple = rng.tuple();
            assert_eq!(r.contains(&tuple), stored.contains(&tuple[..]), "{step}");
        }
        for col in 0..r.arity() {
            let present = match n {
                0 => 0,
                _ => match r.row(rng.below(n as u64) as usize)[col] {
                    Value::Int(i) => i,
                    Value::Sym(_) => unreachable!("integer rows"),
                },
            };
            for key in [present, -1] {
                let visited = selected(r, &[(col, key)], true).expect("may create");
                assert_eq!(visited, scan(r, col, key), "{step}: select [{col}] = {key}");
            }
        }
    }

    #[test]
    fn indexes_contains_and_select_match_a_scan() {
        let mut rng = Rng(0x5eed_0001);
        let mut r = Relation::new(3);
        let mut model: HashSet<Vec<Value>> = HashSet::new();
        let insert = |r: &mut Relation, rng: &mut Rng, model: &mut HashSet<Vec<Value>>, k| {
            for _ in 0..k {
                let tuple = rng.tuple();
                assert_eq!(r.insert(&tuple), model.insert(tuple.clone()));
            }
        };
        r.ensure_index(&[0]);
        check_against_scan(&r, &mut rng, "empty");
        // Batches of random size, and the two late plans.
        for round in 0..24 {
            let k = 1 + rng.below(300);
            insert(&mut r, &mut rng, &mut model, k);
            check_against_scan(&r, &mut rng, &format!("round {round}"));
            if round == 8 {
                r.ensure_index(&[2]);
                check_against_scan(&r, &mut rng, "late single-column index");
            }
            if round == 16 {
                r.ensure_index(&[1, 2]);
                check_against_scan(&r, &mut rng, "late composite index");
            }
        }
        // A clone is a store of its own: both grow apart and both agree
        // with their scans.
        let mut copy = r.clone();
        check_against_scan(&copy, &mut rng, "clone");
        let mut copy_model = model.clone();
        insert(&mut copy, &mut rng, &mut copy_model, 300);
        insert(&mut r, &mut rng, &mut model, 100);
        check_against_scan(&copy, &mut rng, "clone grown");
        check_against_scan(&r, &mut rng, "original grown");
        assert_eq!(r.len(), model.len());
        assert_eq!(copy.len(), copy_model.len());
        assert!(
            model.len() > 2000 && model.len() < 4000,
            "no duplicates drawn"
        );
    }

    #[test]
    fn load_batch_keeps_first_sightings_like_per_row_inserts() {
        let mut rng = Rng(0x5eed_0002);
        // Flat rows, arity-strided, as a loader hands them over.
        let batch = |rng: &mut Rng, k| -> Vec<Value> { (0..k).flat_map(|_| rng.tuple()).collect() };
        let (first, second) = (batch(&mut rng, 2500), batch(&mut rng, 1500));
        let mut bulk = Relation::new(3);
        let mut slow = Relation::new(3);
        // An index planned on the empty relation is filled as rows arrive.
        bulk.ensure_index(&[1]);
        for rows in [first, second] {
            let fresh = rows.chunks(3).filter(|row| slow.insert(row)).count();
            assert_eq!(bulk.load_batch(rows.chunks(3)), fresh);
            assert!(bulk.iter().eq(slow.iter()), "rows or their order differ");
            check_against_scan(&bulk, &mut rng, "after a batch");
        }
        // A batch of nothing but duplicates adds nothing, and grows no
        // table, however long it is.
        let bytes = bulk.overhead_bytes_estimate();
        assert_eq!(
            bulk.load_batch(bulk.values_to(10).repeat(10_000).chunks(3)),
            0
        );
        assert_eq!(bulk.len(), slow.len());
        assert_eq!(bulk.overhead_bytes_estimate(), bytes);
    }

    #[test]
    fn a_lazily_deduplicated_load_answers_like_per_row_inserts() {
        let mut rng = Rng(0x5eed_0003);
        let plans: [&[usize]; 6] = [&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 2]];
        let no_tables = Relation::new(3).overhead_bytes_estimate();
        for case in 0..24 {
            let sorted = case % 2 == 0;
            // Into an empty relation, one holding rows, one with an index.
            let start = ["empty", "non-empty", "indexed"][case % 6 / 2];
            // A batch with copies of its own rows scattered through it.
            let mut rows: Vec<Vec<Value>> = (0..1 + rng.below(700)).map(|_| rng.tuple()).collect();
            for _ in 0..rows.len() / 4 {
                let copy = rows[rng.below(rows.len() as u64) as usize].clone();
                rows.insert(rng.below(rows.len() as u64 + 1) as usize, copy);
            }
            if sorted {
                rows.sort();
            }
            let step = format!("case {case}: {start}, sorted {sorted}");
            let mut lazy = Relation::new(3);
            let mut eager = Relation::new(3);
            let mut planned_cols: Vec<&[usize]> = Vec::new();
            if start == "indexed" {
                let cols = plans[rng.below(6) as usize];
                lazy.ensure_index(cols);
                eager.ensure_index(cols);
                planned_cols.push(cols);
            }
            if start == "non-empty" {
                for _ in 0..1 + rng.below(200) {
                    let tuple = rng.tuple();
                    assert_eq!(lazy.insert(&tuple), eager.insert(&tuple), "{step}");
                }
            }
            let fresh = rows.iter().filter(|row| eager.insert(row)).count();
            assert_eq!(
                lazy.load_batch(rows.iter().map(Vec::as_slice)),
                fresh,
                "{step}"
            );
            assert!(lazy.iter().eq(eager.iter()), "{step}: rows or ids differ");
            if sorted && start == "empty" {
                // The order dropped the duplicates; no table was built.
                assert_eq!(lazy.overhead_bytes_estimate(), no_tables, "{step}");
                let probe = rng.tuple();
                assert_eq!(lazy.contains(&probe), eager.contains(&probe), "{step}");
                assert_eq!(
                    lazy.overhead_bytes_estimate(),
                    eager.overhead_bytes_estimate(),
                    "{step}: the built dedup is the one per-row inserts grow"
                );
            }
            for op in 0..600 {
                let step = format!("{step}, op {op}");
                match rng.below(4) {
                    0 => {
                        let tuple = rng.tuple();
                        assert_eq!(lazy.insert(&tuple), eager.insert(&tuple), "{step}");
                    }
                    1 => {
                        let tuple = match rng.below(2) {
                            0 if !eager.is_empty() => {
                                eager.row(rng.below(eager.len() as u64) as usize).to_vec()
                            }
                            _ => rng.tuple(),
                        };
                        assert_eq!(lazy.contains(&tuple), eager.contains(&tuple), "{step}");
                    }
                    2 => {
                        let cols = plans[rng.below(6) as usize];
                        lazy.ensure_index(cols);
                        eager.ensure_index(cols);
                        if !planned_cols.contains(&cols) {
                            planned_cols.push(cols);
                        }
                    }
                    _ => {
                        let Some(&cols) = planned_cols.get(op % planned_cols.len().max(1)) else {
                            continue;
                        };
                        let n = eager.len();
                        let source = match n {
                            0 => rng.tuple(),
                            _ => eager.row(rng.below(n as u64) as usize).to_vec(),
                        };
                        let key: Vec<Value> = cols.iter().map(|&c| source[c]).collect();
                        let a = rng.below(n as u64 + 1) as usize;
                        let b = a + rng.below((n - a) as u64 + 1) as usize;
                        assert_eq!(
                            lazy.probe_range(cols, &key, a, b),
                            eager.probe_range(cols, &key, a, b),
                            "{step}: probe {cols:?} {key:?} [{a}, {b})"
                        );
                    }
                }
            }
            assert!(lazy.iter().eq(eager.iter()), "{step}: rows or ids differ");
            assert_eq!(lazy.index_columns(), eager.index_columns(), "{step}");
            check_against_scan(&lazy, &mut rng, &step);
        }
    }

    /// Rows whose column `col` holds `key`, by scanning.
    fn scan(r: &Relation, col: usize, key: i64) -> Vec<Vec<Value>> {
        let mut hits: Vec<Vec<Value>> = r
            .iter()
            .filter(|row| row[col] == Value::int(key))
            .map(|row| row.to_vec())
            .collect();
        hits.sort();
        hits
    }

    /// Rows `select` visits for `bound`, or `None` when it declined.
    fn selected(r: &Relation, bound: &[(usize, i64)], create: bool) -> Option<Vec<Vec<Value>>> {
        let bound: Vec<(usize, Value)> = bound.iter().map(|&(c, k)| (c, Value::int(k))).collect();
        let mut hits = Vec::new();
        let served = r.select(&bound, create, |row| hits.push(row.to_vec()));
        hits.sort();
        served.then_some(hits)
    }

    #[test]
    fn select_declines_without_an_index_unless_it_may_create_one() {
        let mut r = Relation::new(2);
        for i in 0..50i64 {
            r.insert(&t(&[i % 5, i]));
        }
        assert_eq!(selected(&r, &[(0, 3)], false), None);
        assert_eq!(selected(&r, &[], true), None, "nothing bound");
        assert!(!r.has_read_index(0) && !r.has_read_index(1));
        // A planned index serves a read, and no slot is filled beside it.
        r.ensure_index(&[0]);
        assert_eq!(selected(&r, &[(0, 3)], false), Some(scan(&r, 0, 3)));
        assert_eq!(selected(&r, &[(0, 3)], true), Some(scan(&r, 0, 3)));
        assert_eq!(selected(&r, &[(0, 9)], true), Some(vec![]));
        assert!(!r.has_read_index(0));
        // With two columns bound the indexed one is probed, even when
        // it is not the first.
        assert_eq!(
            selected(&r, &[(0, 2), (1, 7)], true),
            Some(scan(&r, 0, 2)),
            "the caller filters on column 1"
        );
        assert!(!r.has_read_index(1));
    }

    #[test]
    fn read_index_covers_every_row_inserted_after_it() {
        let mut r = Relation::new(2);
        for i in 0..200i64 {
            r.insert(&t(&[i, i % 7]));
        }
        let before = r.overhead_bytes_estimate();
        assert_eq!(selected(&r, &[(1, 3)], true), Some(scan(&r, 1, 3)));
        assert!(r.has_read_index(1) && !r.has_read_index(0));
        assert!(!r.has_index(&[1]), "a read index is not a planned index");
        assert_eq!(r.read_index_covered(1), Some(200));
        // Seven keys: 16 slots, 8 group headers, 7 groups of 32 ids, and
        // the column set, all accounted.
        assert_eq!(
            r.overhead_bytes_estimate(),
            before + 16 * 4 + 8 * 24 + 7 * 32 * 4 + 8
        );
        // Rows inserted afterwards go into the read index as they arrive.
        for i in 200..300i64 {
            r.insert(&t(&[i, i % 7]));
            assert_eq!(r.read_index_covered(1), Some(r.len()));
            assert_eq!(selected(&r, &[(1, 3)], false), Some(scan(&r, 1, 3)));
        }
        assert_eq!(selected(&r, &[(1, 99)], false), Some(vec![]));
        for k in 0..8 {
            assert_eq!(selected(&r, &[(1, k)], false), Some(scan(&r, 1, k)));
        }
    }

    #[test]
    fn a_planned_index_takes_over_from_the_read_slot() {
        let mut r = Relation::new(3);
        for i in 0..120i64 {
            r.insert(&t(&[i % 4, i % 6, i]));
        }
        let before = r.overhead_bytes_estimate();
        assert_eq!(selected(&r, &[(1, 5)], true), Some(scan(&r, 1, 5)));
        assert!(r.has_read_index(1));
        // Six keys: 16 slots, 8 group headers, 6 groups of 32 ids, and the
        // column set.
        let read = 16 * 4 + 8 * 24 + 6 * 32 * 4 + 8;
        assert_eq!(r.overhead_bytes_estimate(), before + read);
        // A composite index that merely contains the column leaves the
        // read index; the single-column one takes it over, unbuilt.
        r.ensure_index(&[1, 2]);
        assert!(r.has_read_index(1));
        let with_composite = r.overhead_bytes_estimate();
        r.ensure_index(&[1]);
        assert!(!r.has_read_index(1) && r.has_index(&[1]));
        assert_eq!(r.overhead_bytes_estimate(), with_composite);
        assert_eq!(selected(&r, &[(1, 5)], true), Some(scan(&r, 1, 5)));
        assert!(!r.has_read_index(1), "the planned index serves the read");
        // A clone carries its slots along.
        assert_eq!(selected(&r, &[(0, 1)], true), Some(scan(&r, 0, 1)));
        let copy = r.clone();
        assert!(copy.has_read_index(0));
        assert_eq!(selected(&copy, &[(0, 1)], false), Some(scan(&r, 0, 1)));
    }

    /// The fast hash with the zero starting state — what `hash_key` was
    /// before it was seeded — over the words `Value`'s `Hash` writes.
    #[derive(Default)]
    struct Unseeded(u64);

    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    const MIX: u64 = 0xff51_afd7_ed55_8ccd;

    impl std::hash::Hasher for Unseeded {
        fn finish(&self) -> u64 {
            let h = self.0 ^ (self.0 >> 33);
            let h = h.wrapping_mul(MIX);
            h ^ (h >> 33)
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("values hash as words")
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
        }
        fn write_i64(&mut self, v: i64) {
            self.write_u64(v as u64);
        }
        fn write_isize(&mut self, v: isize) {
            self.write_u64(v as u64);
        }
    }

    /// The unseeded hasher after `tuple`.
    fn unseeded(tuple: &[Value]) -> Unseeded {
        use std::hash::Hash;
        let mut h = Unseeded::default();
        tuple.iter().for_each(|v| v.hash(&mut h));
        h
    }

    /// The inverse of an odd `k` modulo 2^64, by Newton's iteration.
    fn inverse(k: u64) -> u64 {
        (0..6).fold(k, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(x)))
        })
    }

    /// `count` tuples `(a, b)` whose unseeded hashes are `hash(a)`: the
    /// final mix is undone to the state that must follow `b`'s word, and
    /// `b` is solved from the state before it, which is `(a, 0)`'s final
    /// state undone by one multiply.
    fn crafted(count: i64, hash: impl Fn(i64) -> u64) -> Vec<Vec<Value>> {
        use std::hash::Hasher;
        let unmix = |h: u64| {
            let h = (h ^ (h >> 33)).wrapping_mul(inverse(MIX));
            h ^ (h >> 33)
        };
        let tuples: Vec<Vec<Value>> = (0..count)
            .map(|a| {
                let before = unseeded(&t(&[a, 0])).0.wrapping_mul(inverse(K));
                let after = unmix(hash(a)).wrapping_mul(inverse(K));
                t(&[a, (after ^ before) as i64])
            })
            .collect();
        for (a, tuple) in tuples.iter().enumerate() {
            assert_eq!(unseeded(tuple).finish(), hash(a as i64));
        }
        tuples
    }

    /// Best of three: the time to insert `tuples` into a new relation.
    fn insert_time(tuples: &[Vec<Value>]) -> std::time::Duration {
        (0..3)
            .map(|_| {
                let mut r = Relation::new(2);
                let t0 = std::time::Instant::now();
                for tuple in tuples {
                    assert!(r.insert(tuple));
                }
                t0.elapsed()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn tuples_crafted_to_share_a_hash_insert_in_linear_time() {
        // Under the unseeded hash the first set ties on all 64 bits, which
        // made sorted-run dedup compare each insert with every earlier
        // tuple; the second ties on the low 32, which would pile every key
        // onto one slot of a table placed by that hash.
        let ordinary: Vec<Vec<Value>> = (0..10_000).map(|a| t(&[a, 7 * a + 1])).collect();
        let ordinary = insert_time(&ordinary);
        let check = |set: &str, tuples: Vec<Vec<Value>>| {
            let hostile = insert_time(&tuples);
            assert!(
                hostile < 20 * ordinary,
                "{set}: crafted {hostile:?} against ordinary {ordinary:?}"
            );
        };
        check("one hash", crafted(10_000, |_| 0x0123_4567_89ab_cdef));
        check(
            "one low half",
            crafted(10_000, |a| 0x89ab_cdef | (a as u64) << 32),
        );
    }
}
