//! Tuple storage for one predicate: append-only rows, duplicate
//! elimination, and composite indices over column sets.
//!
//! Rows are append-only and keep insertion order, which is what lets
//! semi-naive evaluation address "the delta" as a contiguous row-id range.
//! They live arity-strided in one flat [`Rows`] store, the only full copy
//! of any tuple; everything else is an acceleration structure derived
//! beside them (see [`crate::storage`]): a bounded mutable tail plus
//! immutable sorted runs. Dedup is a bloom-gated binary search over flat
//! `(hash, id)` pairs that consults the rows only to verify a hash match;
//! a probe binary-searches each run's materialized key array. Every run
//! covers a contiguous id range, so a probe emits ascending ids within
//! `[start, end)` — a delta range's hits, in row-id order, with no
//! copying. A tail is sealed into a run when it reaches [`TAIL_LIMIT`]
//! rows (see [`Relation::seal`]), and runs are consolidated geometrically.
//! The same structure holds the server's shared EDB ([`crate::shared`]),
//! so a tuple is deduplicated by one piece of code whether it arrives by
//! `FACT`, by recovery or from a fixpoint. The reference the tests hold it
//! to is a filtered scan of [`Relation::rows_in`]
//! ([`crate::oracle::check_indexes`]).
//!
//! Indices are *planned* (from the compiled join orders) and built via
//! [`Relation::ensure_index`] right before the first join variant whose
//! order probes them enumerates, and maintained incrementally by
//! [`Relation::insert`] from then on. Probing is a `&self` operation
//! ([`Relation::probe_range`]), so a fixpoint iteration enumerates against
//! a frozen relation and only its merge mutates it.
//!
//! Answer extraction has its own, cheaper structure: one **read index**
//! slot per column ([`crate::storage::ReadIndex`]), empty until a read
//! that is allowed to create it ([`Relation::select`] with `create`) binds
//! that column to a constant. It is a bare id permutation — 4 bytes a row,
//! keys read through the row store — covering a prefix of the rows;
//! a reader filters the uncovered rows, and an insert folds them in once
//! [`TAIL_LIMIT`] have gathered, so fewer than that are ever uncovered. A
//! column has at most one index: a planned `[col]` index serves reads too,
//! and building one empties the slot. The join path never looks at a slot.

use std::collections::HashMap;
use std::sync::OnceLock;

use datalog_ast::Value;

use crate::storage::{
    self, hash_key, IndexRuns, ProbeHits, ReadIndex, Rows, TupleRuns, TAIL_LIMIT,
};

/// A stored relation. See the module docs for the storage contract.
#[derive(Debug, Clone)]
pub struct Relation {
    rows: Rows,
    dedup: TupleRuns,
    indices: HashMap<Box<[usize]>, IndexRuns>,
    /// One lazily filled read-index slot per column.
    read: Box<[OnceLock<ReadIndex>]>,
}

impl Relation {
    /// New empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            rows: Rows::new(arity),
            dedup: TupleRuns::default(),
            indices: HashMap::new(),
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

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch; callers validate arities upfront.
    pub fn insert(&mut self, tuple: &[Value]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity(), "relation arity mismatch");
        let h = hash_key(tuple.iter().copied());
        if self.dedup.contains(&self.rows, tuple, h) {
            return false;
        }
        self.push(tuple, h);
        true
    }

    /// Append a row known to be new, whose hash is `h`: rows, dedup tail,
    /// index tails; then a seal once the tail reaches [`TAIL_LIMIT`], and
    /// a fold of every read slot left that many rows behind.
    fn push(&mut self, tuple: &[Value], h: u64) {
        let row_id = self.rows.len() as u32;
        self.rows.push(tuple);
        self.dedup.note_insert(h, row_id);
        for (cols, index) in self.indices.iter_mut() {
            index.tail_insert(&self.rows, cols, row_id);
        }
        if self.dedup.tail_len() >= TAIL_LIMIT {
            self.seal();
        } else {
            self.fold_read_tails(TAIL_LIMIT);
        }
    }

    /// Bulk-load a batch of rows; returns the number of new rows. The
    /// result is exactly that of inserting the rows one by one — first
    /// sightings kept, in batch order. Into an empty relation, duplicates
    /// are found by one order-preserving sort instead of per-row hashing
    /// and the whole batch is sealed into one sorted run at once (the
    /// snapshot-recovery fast path, and every cold evaluation's load); into
    /// a non-empty one, the rows are inserted one by one.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch; callers validate arities upfront.
    pub fn load_batch(&mut self, batch: Vec<Box<[Value]>>) -> usize {
        debug_assert!(batch.iter().all(|row| row.len() == self.arity()));
        let before = self.rows.len();
        if self.rows.is_empty() {
            // Order-preserving distinct: sort indices by (tuple, position),
            // mark later equal positions as duplicates, keep first sightings
            // in their original ingestion order. The seal below indexes
            // them, so no tail entry is written.
            let mut idx: Vec<u32> = (0..batch.len() as u32).collect();
            idx.sort_unstable_by(|&a, &b| {
                batch[a as usize][..]
                    .cmp(&batch[b as usize][..])
                    .then(a.cmp(&b))
            });
            let mut dup = vec![false; batch.len()];
            for w in idx.windows(2) {
                if batch[w[0] as usize] == batch[w[1] as usize] {
                    dup[w[1] as usize] = true;
                }
            }
            for (i, row) in batch.iter().enumerate() {
                if !dup[i] {
                    self.rows.push(row);
                }
            }
            self.seal();
        } else {
            for row in batch {
                self.insert(&row);
            }
        }
        self.rows.len() - before
    }

    /// Drop every row, keeping the planned index column sets (empty) and
    /// emptying the read slots: the relation is as new, except that the
    /// join orders' indexes need no building again.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.dedup = TupleRuns::default();
        for index in self.indices.values_mut() {
            *index = IndexRuns::default();
        }
        for slot in self.read.iter_mut() {
            slot.take();
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.dedup
            .contains(&self.rows, tuple, hash_key(tuple.iter().copied()))
    }

    /// Row by id.
    pub fn row(&self, id: usize) -> &[Value] {
        self.rows.row(id)
    }

    /// Iterate rows in the id range `[start, end)`.
    pub fn rows_in(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, &[Value])> {
        (start..end).zip(self.rows.range(start, end))
    }

    /// Fold the uncovered rows into every filled read slot whose uncovered
    /// tail has reached `min_tail` rows.
    fn fold_read_tails(&mut self, min_tail: usize) {
        for (col, slot) in self.read.iter_mut().enumerate() {
            if let Some(index) = slot.get_mut() {
                if self.rows.len() - index.covered() >= min_tail {
                    index.extend_to(&self.rows, col);
                }
            }
        }
    }

    /// Seal the mutable tail into a sorted run and consolidate runs
    /// geometrically. Safe at any point: sealing changes only the
    /// acceleration structures, never the rows or their ids. Inserts seal
    /// automatically once the tail reaches [`TAIL_LIMIT`], which bounds
    /// tail memory; nothing else has to. A filled read slot follows the
    /// same limit: its uncovered rows are folded in once there are
    /// [`TAIL_LIMIT`] of them, so a read filters fewer than that.
    pub fn seal(&mut self) {
        self.fold_read_tails(TAIL_LIMIT);
        let end = self.rows.len();
        if end > self.dedup.sealed() {
            let start = self.dedup.sealed();
            self.dedup.seal_to(&self.rows, end);
            for (cols, index) in self.indices.iter_mut() {
                index.seal_range(&self.rows, cols, start, end);
            }
        }
        if !self.dedup.wants_merge() {
            return;
        }
        let t0 = std::time::Instant::now();
        while self.dedup.wants_merge() {
            self.dedup.merge_last_two();
            for (cols, index) in self.indices.iter_mut() {
                index.merge_last_two(cols);
            }
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Seal and merge every run into one. The geometric policy in
    /// [`Relation::seal`] bounds amortized ingest cost; this is the
    /// read-optimized endpoint for idle or maintenance compaction:
    /// afterwards every probe pays one bloom check and one binary search
    /// instead of one per run. Like sealing, it changes only the
    /// acceleration structures — rows, ids, and probe results are
    /// untouched. Filled read slots are brought to full coverage.
    pub fn consolidate(&mut self) {
        self.seal();
        self.fold_read_tails(1);
        if self.dedup.run_count() <= 1 {
            return;
        }
        let t0 = std::time::Instant::now();
        self.dedup.consolidate();
        for (cols, index) in self.indices.iter_mut() {
            index.consolidate(cols);
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Number of sealed sorted runs.
    pub fn run_count(&self) -> usize {
        self.dedup.run_count()
    }

    /// Estimated heap bytes spent on acceleration structures (dedup +
    /// indices + filled read slots) beyond the row store itself.
    pub fn overhead_bytes_estimate(&self) -> usize {
        let dedup = self.dedup.bytes_estimate();
        let indices: usize = self.indices.values().map(IndexRuns::bytes_estimate).sum();
        let read: usize = self
            .read
            .iter()
            .filter_map(|slot| slot.get())
            .map(ReadIndex::bytes)
            .sum();
        dedup + indices + read
    }

    /// Build the index over the column set `cols` if it does not exist yet.
    /// `cols` must be non-empty, strictly ascending, and within the arity.
    /// Once built, the index is maintained incrementally by `insert`.
    ///
    /// A late-planned index is built from the sealed dedup-run bounds —
    /// contiguous range scans, one sort per run — rather than a full-table
    /// hash build, and the rebuild is counted in the process-wide storage
    /// telemetry. A planned single-column index takes over from that
    /// column's read slot, which is emptied: one index per column.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty(), "index over the empty column set");
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not sorted");
        debug_assert!(
            cols.iter().all(|&c| c < self.arity()),
            "column out of range"
        );
        if self.indices.contains_key(cols) {
            return;
        }
        let index = IndexRuns::build(&self.rows, cols, &self.dedup.bounds(), self.dedup.sealed());
        self.indices.insert(cols.into(), index);
        if let [col] = cols {
            self.read[*col].take();
        }
    }

    /// Ids of rows in `[start, end)` whose projection onto `cols` equals
    /// `key`, in ascending id order. Row ids within each run group are
    /// ascending, so the `[start, end)` bounds are found by binary search
    /// instead of a linear filter — the caller gets exactly the delta
    /// range's hits with no copying.
    ///
    /// The index over `cols` must have been built with
    /// [`Relation::ensure_index`]; probing is read-only so a frozen
    /// relation can be shared across threads.
    ///
    /// # Panics
    /// Panics if no index over `cols` exists.
    pub fn probe_range(
        &self,
        cols: &[usize],
        key: &[Value],
        start: usize,
        end: usize,
    ) -> ProbeHits<'_> {
        let mut out = ProbeHits::new();
        let index = self
            .indices
            .get(cols)
            .unwrap_or_else(|| panic!("probe_range over unplanned index {cols:?}"));
        index.probe(&self.rows, cols, key, start, end, &mut out);
        out
    }

    /// Whether an index over the column set `cols` has been materialized.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indices.contains_key(cols)
    }

    /// The column sets of the planned indexes, in ascending order.
    pub fn index_columns(&self) -> Vec<&[usize]> {
        let mut cols: Vec<&[usize]> = self.indices.keys().map(|c| &**c).collect();
        cols.sort_unstable();
        cols
    }

    /// Whether column `col`'s read slot is filled. Separate from
    /// [`Relation::has_index`], which answers for planned indexes only.
    pub fn has_read_index(&self, col: usize) -> bool {
        self.read_index_covered(col).is_some()
    }

    /// How many rows column `col`'s read slot covers — the id prefix
    /// `[0, covered)` — or `None` while the slot is empty.
    pub fn read_index_covered(&self, col: usize) -> Option<usize> {
        Some(self.read[col].get()?.covered())
    }

    /// Narrow a read through an index: given the `(column, constant)`
    /// pairs a read binds, visit every row that agrees with **one** of
    /// them — the first whose column has a planned `[col]` index or a
    /// filled read slot — and return `true`. The caller still applies all
    /// its filters to what it is shown. When no bound column is indexed,
    /// `create` decides: a reader that keeps the relation (a resident
    /// form) fills the read slot of the first bound column and probes it;
    /// one that reads once (a cold evaluation's extraction) gets `false`,
    /// having visited nothing, and scans — sorting a relation costs more
    /// than one pass over it.
    ///
    /// Rows are visited in no particular order.
    pub fn select<'a>(
        &'a self,
        bound: &[(usize, Value)],
        create: bool,
        mut visit: impl FnMut(&'a [Value]),
    ) -> bool {
        let indexed = |col: usize| self.has_index(&[col]) || self.has_read_index(col);
        let picked = bound
            .iter()
            .find(|&&(col, _)| indexed(col))
            .or_else(|| bound.first().filter(|_| create));
        let Some(&(col, key)) = picked else {
            return false;
        };
        if self.has_index(&[col]) {
            let hits = self.probe_range(&[col], &[key], 0, self.rows.len());
            hits.iter().for_each(|id| visit(self.rows.row(id as usize)));
            return true;
        }
        let index = self.read[col].get_or_init(|| ReadIndex::build(&self.rows, col));
        for &id in index.group(&self.rows, col, key) {
            visit(self.rows.row(id as usize));
        }
        for row in self.rows.range(index.covered(), self.rows.len()) {
            if row[col] == key {
                visit(row);
            }
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
        // Interleave inserts with seals so hits span several runs + tail.
        for i in 0..300i64 {
            if r.insert(&t(&[i % 5, i])) && i % 5 == 2 {
                expect.push(i as u32);
            }
            if i % 37 == 0 {
                r.seal();
            }
        }
        assert!(r.run_count() >= 1, "seals produced no runs");
        let key = t(&[2]);
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        // Delta subranges stay exact across run boundaries.
        let sub: Vec<u32> = expect
            .iter()
            .copied()
            .filter(|&i| (40..200).contains(&(i as usize)))
            .collect();
        assert_eq!(r.probe_range(&[0], &key, 40, 200).to_vec(), sub);
        // Full seal + consolidation: identical again.
        r.seal();
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        for i in 0..300i64 {
            assert!(r.contains(&t(&[i % 5, i])));
        }
        assert!(!r.contains(&t(&[7, 7])));
    }

    #[test]
    fn consolidate_collapses_runs_and_preserves_results() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        for i in 0..400i64 {
            r.insert(&t(&[i % 7, i]));
            if i % 31 == 0 {
                r.seal();
            }
        }
        r.seal();
        assert!(
            r.run_count() >= 2,
            "workload produced {} runs",
            r.run_count()
        );
        let before: Vec<u32> = r.probe_range(&[0], &t(&[3]), 0, 400).to_vec();
        r.consolidate();
        assert_eq!(r.run_count(), 1);
        assert_eq!(r.probe_range(&[0], &t(&[3]), 0, 400).to_vec(), before);
        assert_eq!(
            r.probe_range(&[0], &t(&[3]), 50, 200).to_vec(),
            before
                .iter()
                .copied()
                .filter(|&i| (50..200).contains(&(i as usize)))
                .collect::<Vec<u32>>()
        );
        for i in 0..400i64 {
            assert!(r.contains(&t(&[i % 7, i])));
        }
        assert!(!r.contains(&t(&[8, 8])));
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
        // No explicit seal: inserts cross TAIL_LIMIT and seal on their own.
        while r.run_count() == 0 {
            let k = 1 + rng.below(300);
            insert(&mut r, &mut rng, &mut model, k);
            check_against_scan(&r, &mut rng, "automatic seals");
        }
        // Explicit seals at random points, and the two late plans.
        for round in 0..24 {
            let k = 1 + rng.below(150);
            insert(&mut r, &mut rng, &mut model, k);
            check_against_scan(&r, &mut rng, &format!("round {round}"));
            if rng.below(3) == 0 {
                r.seal();
                check_against_scan(&r, &mut rng, &format!("seal after round {round}"));
            }
            if round == 8 {
                r.ensure_index(&[2]);
                check_against_scan(&r, &mut rng, "late single-column index");
            }
            if round == 16 {
                r.ensure_index(&[1, 2]);
                check_against_scan(&r, &mut rng, "late composite index");
            }
        }
        // A small run on top of a large one stays separate until
        // consolidation.
        insert(&mut r, &mut rng, &mut model, 40);
        r.seal();
        assert!(r.run_count() >= 2);
        r.consolidate();
        assert_eq!(r.run_count(), 1);
        check_against_scan(&r, &mut rng, "consolidated");
        insert(&mut r, &mut rng, &mut model, 200);
        check_against_scan(&r, &mut rng, "tail after consolidation");
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
            model.len() > 2 * TAIL_LIMIT && model.len() < 4000,
            "no duplicates drawn"
        );
    }

    #[test]
    fn load_batch_keeps_first_sightings_like_per_row_inserts() {
        let mut rng = Rng(0x5eed_0002);
        let batch = |rng: &mut Rng, k| -> Vec<Box<[Value]>> {
            (0..k).map(|_| rng.tuple().into_boxed_slice()).collect()
        };
        let (first, second) = (batch(&mut rng, 2500), batch(&mut rng, 1500));
        let mut bulk = Relation::new(3);
        let mut slow = Relation::new(3);
        // An index planned on the empty relation is filled by the seal.
        bulk.ensure_index(&[1]);
        for rows in [first, second] {
            let fresh = rows.iter().filter(|row| slow.insert(row)).count();
            assert_eq!(bulk.load_batch(rows), fresh);
            assert!(bulk.iter().eq(slow.iter()), "rows or their order differ");
            check_against_scan(&bulk, &mut rng, "after a batch");
        }
        assert!(bulk.run_count() >= 1);
        // A batch of nothing but duplicates adds nothing.
        let again: Vec<Box<[Value]>> = slow.iter().take(10).map(Box::from).collect();
        assert_eq!(bulk.load_batch(again), 0);
        assert_eq!(bulk.len(), slow.len());
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
    fn read_index_covers_a_prefix_and_the_reader_filters_the_rest() {
        let mut r = Relation::new(2);
        for i in 0..200i64 {
            r.insert(&t(&[i, i % 7]));
        }
        let before = r.overhead_bytes_estimate();
        assert_eq!(selected(&r, &[(1, 3)], true), Some(scan(&r, 1, 3)));
        assert!(r.has_read_index(1) && !r.has_read_index(0));
        assert!(!r.has_index(&[1]), "a read slot is not a planned index");
        // 4 bytes a covered row, accounted.
        assert_eq!(r.read_index_covered(1), Some(200));
        assert_eq!(r.overhead_bytes_estimate(), before + 4 * 200);
        // Rows inserted afterwards are not in the slot (insert does no
        // per-slot work) but every read still sees them, across seals that
        // are too small to fold.
        for i in 200..300i64 {
            r.insert(&t(&[i, i % 7]));
            if i % 25 == 0 {
                r.seal();
            }
            assert_eq!(selected(&r, &[(1, 3)], false), Some(scan(&r, 1, 3)));
        }
        assert_eq!(selected(&r, &[(1, 99)], false), Some(vec![]));
        assert_eq!(r.read_index_covered(1), Some(200));
        // Consolidation brings the slot to full coverage.
        r.consolidate();
        assert_eq!(r.read_index_covered(1), Some(300));
        for k in 0..8 {
            assert_eq!(selected(&r, &[(1, k)], false), Some(scan(&r, 1, k)));
        }
    }

    #[test]
    fn seal_folds_the_uncovered_rows_at_the_tail_limit() {
        let mut r = Relation::new(2);
        for i in 0..10i64 {
            r.insert(&t(&[i % 3, i]));
        }
        assert_eq!(selected(&r, &[(0, 1)], true), Some(scan(&r, 0, 1)));
        // One row short of the limit: sealing leaves the slot alone.
        for i in 10..(10 + TAIL_LIMIT as i64 - 1) {
            r.insert(&t(&[i % 3, i]));
        }
        r.seal();
        assert_eq!(r.read_index_covered(0), Some(10));
        assert_eq!(selected(&r, &[(0, 1)], false), Some(scan(&r, 0, 1)));
        // The next row reaches it: the seal folds everything in, keys
        // interleaved with the covered ones, and reads agree with a scan.
        r.insert(&t(&[0, -1]));
        r.seal();
        assert_eq!(r.read_index_covered(0), Some(r.len()));
        for k in 0..4 {
            assert_eq!(selected(&r, &[(0, k)], false), Some(scan(&r, 0, k)));
        }
        // Inserts that cross the limit on their own seal automatically.
        for i in 0..(2 * TAIL_LIMIT as i64) {
            r.insert(&t(&[i % 3, 100_000 + i]));
        }
        assert!(r.len() - r.read_index_covered(0).unwrap() < TAIL_LIMIT);
        assert_eq!(selected(&r, &[(0, 2)], false), Some(scan(&r, 0, 2)));
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
        assert_eq!(r.overhead_bytes_estimate(), before + 4 * 120);
        // A composite index that merely contains the column leaves the
        // slot; the single-column one replaces it.
        r.ensure_index(&[1, 2]);
        assert!(r.has_read_index(1));
        r.ensure_index(&[1]);
        assert!(!r.has_read_index(1) && r.has_index(&[1]));
        assert_eq!(selected(&r, &[(1, 5)], true), Some(scan(&r, 1, 5)));
        assert!(!r.has_read_index(1), "the planned index serves the read");
        // A clone carries its slots along.
        assert_eq!(selected(&r, &[(0, 1)], true), Some(scan(&r, 0, 1)));
        let copy = r.clone();
        assert!(copy.has_read_index(0));
        assert_eq!(selected(&copy, &[(0, 1)], false), Some(scan(&r, 0, 1)));
    }
}
