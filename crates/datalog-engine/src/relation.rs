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

use std::collections::HashMap;
use std::collections::HashSet;

use datalog_ast::Value;

use crate::storage::{self, IndexRuns, Postings, ProbeHits, StorageMode, TupleRuns, TAIL_LIMIT};

/// Legacy backend: duplicate tuple set + composite hash postings.
#[derive(Debug, Clone, Default)]
struct LegacyStore {
    seen: HashSet<Box<[Value]>>,
    indices: HashMap<Box<[usize]>, Postings>,
}

/// Sorted-run backend: run-based dedup + run-based composite indices.
#[derive(Debug, Clone, Default)]
struct SortedStore {
    dedup: TupleRuns,
    indices: HashMap<Box<[usize]>, IndexRuns>,
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
                StorageMode::SortedRun => Store::Sorted(SortedStore::default()),
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
    /// automatically past [`TAIL_LIMIT`] to bound tail memory.
    pub fn seal(&mut self) {
        let Store::Sorted(s) = &mut self.store else {
            return;
        };
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
    /// are untouched.
    pub fn consolidate(&mut self) {
        self.seal();
        let Store::Sorted(s) = &mut self.store else {
            return;
        };
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
    /// indices) beyond the row store itself. The sorted-run backend's whole
    /// point is that this is a fraction of the legacy figure.
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
                dedup + indices
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
    /// process-wide storage telemetry.
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
