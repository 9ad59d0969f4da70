//! Tuple storage for one predicate: append-only rows, duplicate
//! elimination, and composite indices over column sets.
//!
//! Rows are append-only and keep insertion order, which is what lets
//! semi-naive evaluation address "the delta" as a contiguous row-id range.
//! Two backends implement the same logical contract
//! ([`crate::storage::StorageMode`]):
//!
//! - **SortedRun** (default): a bounded mutable tail plus immutable sorted
//!   runs. Dedup is a bloom-gated binary search over flat `(hash, id)`
//!   pairs (no duplicate `seen` copy of any tuple — the row store is only
//!   consulted to verify a hash match); probes binary-search each run's
//!   materialized key array and emit per-run slices whose concatenation is
//!   ascending — byte-identical to the hash-postings order. Runs are sealed
//!   at the freeze barrier (see [`Relation::seal`]) and consolidated
//!   geometrically.
//! - **Legacy**: the original duplicate `seen` set + hash postings, kept as
//!   the differential-testing oracle (`fuzz --smoke` compares the two).
//!
//! Indices are *planned* (from the compiled join orders) and built via
//! [`Relation::ensure_index`] at the barrier of the first iteration whose
//! tasks probe them, and maintained incrementally by
//! [`Relation::insert`] from then on. Probing is a `&self` operation
//! ([`Relation::probe_range`]), which is what lets one frozen relation be
//! shared across worker threads during a parallel fixpoint iteration.
//!
//! Answer extraction has its own, cheaper structure: one **read index**
//! slot per column ([`crate::storage::ReadIndex`], sorted-run storage
//! only), empty until a read that is allowed to create it
//! ([`Relation::select`] with `create`) binds that column to a constant.
//! It is a bare id permutation — 4 bytes a row, keys read through the row
//! store — covering a prefix of the rows; `insert` does nothing for it, a
//! reader filters the uncovered rows, and [`Relation::seal`] folds them in
//! once [`TAIL_LIMIT`] have gathered. A column has at most one index: a
//! planned `[col]` index serves reads too, and building one empties the
//! slot. The join path never looks at a slot.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::OnceLock;

use datalog_ast::Value;

use crate::storage::{
    self, IndexRuns, Postings, ProbeHits, ReadIndex, StorageMode, TupleRuns, TAIL_LIMIT,
};

/// Legacy backend: duplicate tuple set + composite hash postings.
#[derive(Debug, Clone, Default)]
struct LegacyStore {
    seen: HashSet<Box<[Value]>>,
    indices: HashMap<Box<[usize]>, Postings>,
}

/// Sorted-run backend: run-based dedup + run-based composite indices, and
/// one lazily filled read-index slot per column (see the module docs).
#[derive(Debug, Clone, Default)]
struct SortedStore {
    dedup: TupleRuns,
    indices: HashMap<Box<[usize]>, IndexRuns>,
    read: Box<[OnceLock<ReadIndex>]>,
}

impl SortedStore {
    /// Fold the uncovered rows into every filled read slot whose uncovered
    /// tail has reached `min_tail` rows.
    fn fold_read_tails(&mut self, rows: &[Box<[Value]>], min_tail: usize) {
        for (col, slot) in self.read.iter_mut().enumerate() {
            if let Some(index) = slot.get_mut() {
                if rows.len() - index.covered() >= min_tail {
                    index.extend_to(rows, col);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Store {
    Legacy(LegacyStore),
    Sorted(SortedStore),
}

impl Default for Store {
    fn default() -> Store {
        Store::Sorted(SortedStore::default())
    }
}

/// A stored relation. See the module docs for the storage contract.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    rows: Vec<Box<[Value]>>,
    store: Store,
}

impl Relation {
    /// New empty relation of the given arity (sorted-run storage).
    pub fn new(arity: usize) -> Relation {
        Relation::with_mode(arity, StorageMode::SortedRun)
    }

    /// New empty relation with an explicit storage backend.
    pub fn with_mode(arity: usize, mode: StorageMode) -> Relation {
        Relation {
            arity,
            rows: Vec::new(),
            store: match mode {
                StorageMode::Legacy => Store::Legacy(LegacyStore::default()),
                StorageMode::SortedRun => Store::Sorted(SortedStore {
                    read: (0..arity).map(|_| OnceLock::new()).collect(),
                    ..SortedStore::default()
                }),
            },
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
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
        debug_assert_eq!(tuple.len(), self.arity, "relation arity mismatch");
        match &mut self.store {
            Store::Legacy(s) => {
                if s.seen.contains(tuple) {
                    return false;
                }
                let boxed: Box<[Value]> = tuple.into();
                let row_id = self.rows.len() as u32;
                for (cols, index) in s.indices.iter_mut() {
                    let key: Box<[Value]> = cols.iter().map(|&c| boxed[c]).collect();
                    index.entry(key).or_default().push(row_id);
                }
                s.seen.insert(boxed.clone());
                self.rows.push(boxed);
                true
            }
            Store::Sorted(s) => {
                if s.dedup.contains(&self.rows, tuple) {
                    return false;
                }
                let boxed: Box<[Value]> = tuple.into();
                let row_id = self.rows.len() as u32;
                for (cols, index) in s.indices.iter_mut() {
                    index.tail_insert(cols, &boxed, row_id);
                }
                s.dedup.note_insert(boxed.clone());
                self.rows.push(boxed);
                if s.dedup.tail_len() >= TAIL_LIMIT {
                    self.seal();
                }
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        match &self.store {
            Store::Legacy(s) => s.seen.contains(tuple),
            Store::Sorted(s) => s.dedup.contains(&self.rows, tuple),
        }
    }

    /// Row by id.
    pub fn row(&self, id: usize) -> &[Value] {
        &self.rows[id]
    }

    /// Iterate rows in the id range `[start, end)`.
    pub fn rows_in(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, &[Value])> {
        self.rows[start..end]
            .iter()
            .enumerate()
            .map(move |(i, r)| (start + i, &**r))
    }

    /// Seal the mutable tail into a sorted run and consolidate runs
    /// geometrically. A no-op on legacy storage, and safe at any point:
    /// sealing changes only the acceleration structures, never the rows or
    /// their ids. The evaluator calls this at every freeze barrier so each
    /// iteration's probes run against consolidated runs; inserts also seal
    /// automatically past [`TAIL_LIMIT`] to bound tail memory. A filled
    /// read slot follows the same limit: its uncovered rows are folded in
    /// once there are [`TAIL_LIMIT`] of them, so after any seal a read
    /// filters fewer than that.
    pub fn seal(&mut self) {
        let Store::Sorted(s) = &mut self.store else {
            return;
        };
        s.fold_read_tails(&self.rows, TAIL_LIMIT);
        let end = self.rows.len();
        if end > s.dedup.sealed() {
            let start = s.dedup.sealed();
            s.dedup.seal_to(&self.rows, end);
            for (cols, index) in s.indices.iter_mut() {
                index.seal_range(&self.rows, cols, start, end);
            }
        }
        if !s.dedup.wants_merge() {
            return;
        }
        let t0 = std::time::Instant::now();
        while s.dedup.wants_merge() {
            s.dedup.merge_last_two();
            for (cols, index) in s.indices.iter_mut() {
                index.merge_last_two(cols);
            }
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Seal and merge every run into one (a no-op on legacy storage).
    /// The geometric policy in [`Relation::seal`] bounds amortized ingest
    /// cost; this is the read-optimized endpoint for idle or maintenance
    /// compaction: afterwards every probe pays one bloom check and one
    /// binary search instead of one per run. Like sealing, it changes
    /// only the acceleration structures — rows, ids, and probe results
    /// are untouched. Filled read slots are brought to full coverage.
    pub fn consolidate(&mut self) {
        self.seal();
        let Store::Sorted(s) = &mut self.store else {
            return;
        };
        s.fold_read_tails(&self.rows, 1);
        if s.dedup.run_count() <= 1 {
            return;
        }
        let t0 = std::time::Instant::now();
        s.dedup.consolidate();
        for (cols, index) in s.indices.iter_mut() {
            index.consolidate(cols);
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Number of sealed sorted runs (0 on legacy storage).
    pub fn run_count(&self) -> usize {
        match &self.store {
            Store::Legacy(_) => 0,
            Store::Sorted(s) => s.dedup.run_count(),
        }
    }

    /// Estimated heap bytes spent on acceleration structures (dedup +
    /// indices + filled read slots) beyond the row store itself. The
    /// sorted-run backend's whole point is that this is a fraction of the
    /// legacy figure.
    pub fn overhead_bytes_estimate(&self) -> usize {
        match &self.store {
            Store::Legacy(s) => {
                let seen = s.seen.len() * storage::tail_entry_bytes(self.arity);
                let indices: usize = s
                    .indices
                    .iter()
                    .map(|(cols, index)| {
                        index
                            .iter()
                            .map(|(k, v)| {
                                16 + k.len() * std::mem::size_of::<Value>() + v.len() * 4 + 16
                            })
                            .sum::<usize>()
                            + cols.len()
                    })
                    .sum();
                seen + indices
            }
            Store::Sorted(s) => {
                let dedup = s.dedup.bytes_estimate(self.arity);
                let indices: usize = s
                    .indices
                    .iter()
                    .map(|(cols, index)| index.bytes_estimate(cols.len()))
                    .sum();
                let read: usize = s
                    .read
                    .iter()
                    .filter_map(|slot| slot.get())
                    .map(ReadIndex::bytes)
                    .sum();
                dedup + indices + read
            }
        }
    }

    /// Build the index over the column set `cols` if it does not exist yet.
    /// `cols` must be non-empty, strictly ascending, and within the arity.
    /// Once built, the index is maintained incrementally by `insert`.
    ///
    /// On sorted-run storage a late-planned index is built from the sealed
    /// dedup-run bounds — contiguous range scans, one sort per run — rather
    /// than a full-table hash build, and the rebuild is counted in the
    /// process-wide storage telemetry. A planned single-column index takes
    /// over from that column's read slot, which is emptied: one index per
    /// column.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty(), "index over the empty column set");
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not sorted");
        debug_assert!(cols.iter().all(|&c| c < self.arity), "column out of range");
        match &mut self.store {
            Store::Legacy(s) => {
                if s.indices.contains_key(cols) {
                    return;
                }
                let mut index = Postings::new();
                for (i, row) in self.rows.iter().enumerate() {
                    let key: Box<[Value]> = cols.iter().map(|&c| row[c]).collect();
                    index.entry(key).or_default().push(i as u32);
                }
                s.indices.insert(cols.into(), index);
            }
            Store::Sorted(s) => {
                if s.indices.contains_key(cols) {
                    return;
                }
                let index = IndexRuns::build(&self.rows, cols, &s.dedup.bounds(), s.dedup.sealed());
                s.indices.insert(cols.into(), index);
                if let [col] = cols {
                    s.read[*col].take();
                }
            }
        }
    }

    /// Ids of rows in `[start, end)` whose projection onto `cols` equals
    /// `key`. Row ids within each posting/run group are ascending, so the
    /// `[start, end)` bounds are found by binary search instead of a linear
    /// filter — the caller gets exactly the delta range's hits with no
    /// copying, in ascending id order regardless of backend.
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
        match &self.store {
            Store::Legacy(s) => {
                let index = s
                    .indices
                    .get(cols)
                    .unwrap_or_else(|| panic!("probe_range over unplanned index {cols:?}"));
                if let Some(postings) = index.get(key) {
                    let lo = postings.partition_point(|&id| (id as usize) < start);
                    let hi = postings.partition_point(|&id| (id as usize) < end);
                    out.push(&postings[lo..hi]);
                }
            }
            Store::Sorted(s) => {
                let index = s
                    .indices
                    .get(cols)
                    .unwrap_or_else(|| panic!("probe_range over unplanned index {cols:?}"));
                index.probe(key, start, end, &mut out);
            }
        }
        out
    }

    /// Whether an index over the column set `cols` has been materialized.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        match &self.store {
            Store::Legacy(s) => s.indices.contains_key(cols),
            Store::Sorted(s) => s.indices.contains_key(cols),
        }
    }

    /// Whether column `col`'s read slot is filled (never on legacy
    /// storage). Separate from [`Relation::has_index`], which answers for
    /// planned indexes only.
    pub fn has_read_index(&self, col: usize) -> bool {
        self.read_index_covered(col).is_some()
    }

    /// How many rows column `col`'s read slot covers — the id prefix
    /// `[0, covered)` — or `None` while the slot is empty.
    pub fn read_index_covered(&self, col: usize) -> Option<usize> {
        Some(self.read_slot(col)?.get()?.covered())
    }

    fn read_slot(&self, col: usize) -> Option<&OnceLock<ReadIndex>> {
        match &self.store {
            Store::Legacy(_) => None,
            Store::Sorted(s) => Some(&s.read[col]),
        }
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
    /// than one pass over it. Legacy storage has no slots to fill.
    ///
    /// Rows are visited in no particular order.
    pub fn select<'a>(
        &'a self,
        bound: &[(usize, Value)],
        create: bool,
        mut visit: impl FnMut(&'a [Value]),
    ) -> bool {
        let indexed = |col: usize| self.has_index(&[col]) || self.has_read_index(col);
        let picked = bound.iter().find(|&&(col, _)| indexed(col)).or_else(|| {
            bound
                .first()
                .filter(|&&(col, _)| create && self.read_slot(col).is_some())
        });
        let Some(&(col, key)) = picked else {
            return false;
        };
        if self.has_index(&[col]) {
            let hits = self.probe_range(&[col], &[key], 0, self.rows.len());
            hits.iter().for_each(|id| visit(&self.rows[id as usize]));
            return true;
        }
        let index = self
            .read_slot(col)
            .expect("a picked column without a planned index has a read slot")
            .get_or_init(|| ReadIndex::build(&self.rows, col));
        for &id in index.group(&self.rows, col, key) {
            visit(&self.rows[id as usize]);
        }
        for row in &self.rows[index.covered()..] {
            if row[col] == key {
                visit(row);
            }
        }
        true
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| &**r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    fn both_modes(f: impl Fn(StorageMode)) {
        f(StorageMode::Legacy);
        f(StorageMode::SortedRun);
    }

    #[test]
    fn insert_dedups() {
        both_modes(|mode| {
            let mut r = Relation::with_mode(2, mode);
            assert!(r.insert(&t(&[1, 2])));
            assert!(!r.insert(&t(&[1, 2])));
            assert!(r.insert(&t(&[2, 1])));
            assert_eq!(r.len(), 2);
            assert!(r.contains(&t(&[1, 2])));
            assert!(!r.contains(&t(&[3, 3])));
        });
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
        both_modes(|mode| {
            let mut r = Relation::with_mode(2, mode);
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
        });
    }

    #[test]
    fn probe_range_binary_searches_the_bounds() {
        both_modes(|mode| {
            let mut r = Relation::with_mode(2, mode);
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
        });
    }

    #[test]
    fn composite_index_probes_all_bound_columns() {
        both_modes(|mode| {
            let mut r = Relation::with_mode(3, mode);
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
        });
    }

    #[test]
    fn zero_arity_relation_holds_one_row() {
        both_modes(|mode| {
            let mut r = Relation::with_mode(0, mode);
            assert!(r.insert(&[]));
            assert!(!r.insert(&[]));
            assert_eq!(r.len(), 1);
            assert!(r.contains(&[]));
        });
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

    #[test]
    fn sorted_and_legacy_storage_agree() {
        let mut sorted = Relation::new(2);
        let mut legacy = Relation::with_mode(2, StorageMode::Legacy);
        sorted.ensure_index(&[1]);
        legacy.ensure_index(&[1]);
        // A deterministic pseudo-random workload with duplicates.
        let mut x = 42u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let tuple = t(&[(step() % 50) as i64, (step() % 20) as i64]);
            assert_eq!(sorted.insert(&tuple), legacy.insert(&tuple));
            if step() % 97 == 0 {
                sorted.seal();
            }
        }
        assert_eq!(sorted.len(), legacy.len());
        for k in 0..20i64 {
            let key = t(&[k]);
            for (start, end) in [(0, sorted.len()), (13, sorted.len() / 2), (600, 601)] {
                assert_eq!(
                    sorted.probe_range(&[1], &key, start, end).to_vec(),
                    legacy.probe_range(&[1], &key, start, end).to_vec(),
                    "key {k} range {start}..{end}"
                );
            }
        }
        // Late-planned index over existing sealed runs.
        sorted.ensure_index(&[0]);
        legacy.ensure_index(&[0]);
        for k in 0..50i64 {
            assert_eq!(
                sorted.probe_range(&[0], &t(&[k]), 0, sorted.len()).to_vec(),
                legacy.probe_range(&[0], &t(&[k]), 0, legacy.len()).to_vec(),
            );
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
        both_modes(|mode| {
            let mut r = Relation::with_mode(2, mode);
            for i in 0..50i64 {
                r.insert(&t(&[i % 5, i]));
            }
            assert_eq!(selected(&r, &[(0, 3)], false), None);
            assert_eq!(selected(&r, &[], true), None, "nothing bound");
            assert!(!r.has_read_index(0) && !r.has_read_index(1));
            // A planned index serves a read on either backend, and no slot
            // is filled beside it.
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
        });
        // Legacy storage has no slot to fill: the read scans.
        let mut legacy = Relation::with_mode(2, StorageMode::Legacy);
        legacy.insert(&t(&[1, 2]));
        assert_eq!(selected(&legacy, &[(1, 2)], true), None);
        assert!(!legacy.has_read_index(1));
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

    #[test]
    fn sorted_overhead_is_smaller_than_legacy() {
        let mut sorted = Relation::new(3);
        let mut legacy = Relation::with_mode(3, StorageMode::Legacy);
        sorted.ensure_index(&[0]);
        legacy.ensure_index(&[0]);
        for i in 0..5000i64 {
            sorted.insert(&t(&[i % 100, i, i * 7]));
            legacy.insert(&t(&[i % 100, i, i * 7]));
        }
        sorted.seal();
        assert!(
            sorted.overhead_bytes_estimate() * 2 < legacy.overhead_bytes_estimate(),
            "sorted {} vs legacy {}",
            sorted.overhead_bytes_estimate(),
            legacy.overhead_bytes_estimate()
        );
    }
}
