//! Concurrently shared EDB storage with snapshot-isolated reads.
//!
//! `datalog-server` keeps one long-lived fact store that a writer thread
//! grows (FACT/LOAD ingestion) while N worker threads evaluate queries.
//! The storage contract that makes this safe is the same one the in-process
//! [`Relation`] already exploits for semi-naive deltas: **rows are
//! append-only**, so the prefix `[0, w)` of a relation is immutable once
//! `w` rows have been committed.
//!
//! A [`SharedRelation`] is therefore that same [`Relation`] — one tuple
//! store, one dedup path for `FACT`, `LOAD`, recovery and fixpoints alike
//! — behind a lock, plus a *committed watermark* (an atomic row count,
//! published with `Release` ordering after the row is in place). A
//! [`DbSnapshot`] is nothing but an `Arc` handle per relation plus the
//! watermark observed at capture time: cheap to take (no row copying), and
//! every read through it is clamped to the captured watermark — a reader
//! can never observe a torn or half-ingested state, only a consistent
//! prefix of the ingestion order.
//! Row memory itself is only touched under the relation's `RwLock` (a `Vec`
//! push may reallocate), but the lock is held per-access, never across a
//! whole query evaluation, so ingestion and evaluation interleave freely.
//!
//! Snapshots also record a global *version* (total successful inserts),
//! which the server's prepared-query cache uses to tag materialized
//! answers; per-relation watermarks give the precise "did anything this
//! query depends on change" test.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use datalog_ast::{PredRef, Value};

use crate::facts::{Edb, FactSet};
use crate::relation::Relation;

/// Recover the guard from a possibly poisoned lock acquisition.
///
/// Every invariant the shared store protects is *append-only*: a row is
/// fully constructed before the committed watermark publishes it, and a
/// panic between push and publish leaves at worst an uncommitted row that
/// no reader can address. Poisoning therefore carries no information here —
/// a long-lived server must shrug it off and keep serving rather than
/// cascade one worker's panic into every connection. Works for both
/// `RwLock` and `Mutex` guards.
pub fn lock_or_recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Errors from the shared store. These are deliberately separate from
/// [`crate::EngineError`]: a long-running server must report them
/// in-protocol, never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharedDbError {
    /// A tuple's arity disagrees with the relation's registered arity.
    Arity {
        /// The predicate.
        pred: String,
        /// Registered arity.
        expected: usize,
        /// Arity of the offending tuple.
        found: usize,
    },
}

impl std::fmt::Display for SharedDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedDbError::Arity {
                pred,
                expected,
                found,
            } => write!(
                f,
                "fact for {pred} has arity {found}, relation registered with {expected}"
            ),
        }
    }
}

impl std::error::Error for SharedDbError {}

impl SharedDbError {
    /// The same error, naming `pred`.
    fn for_pred(self, pred: &PredRef) -> SharedDbError {
        match self {
            SharedDbError::Arity {
                expected, found, ..
            } => SharedDbError::Arity {
                pred: pred.to_string(),
                expected,
                found,
            },
        }
    }
}

/// One predicate's shared, append-only relation: a [`Relation`] behind a
/// lock, so insert (check + push) is atomic, and the committed watermark
/// beside it.
///
/// Readers address rows through a watermark they captured earlier; the
/// watermark is published only after the row is fully in place, so
/// `[0, watermark)` is always a valid, immutable prefix.
#[derive(Debug)]
pub struct SharedRelation {
    arity: usize,
    store: RwLock<Relation>,
    /// Number of committed rows, published with `Release` after each insert.
    committed: AtomicUsize,
}

impl SharedRelation {
    /// New empty relation of the given arity.
    pub fn new(arity: usize) -> SharedRelation {
        SharedRelation {
            arity,
            store: RwLock::new(Relation::new(arity)),
            committed: AtomicUsize::new(0),
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Committed (reader-visible) row count.
    pub fn len(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Whether no row has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check_arity(&self, found: usize) -> Result<(), SharedDbError> {
        if found == self.arity {
            return Ok(());
        }
        Err(SharedDbError::Arity {
            pred: String::new(), // filled in by SharedDatabase
            expected: self.arity,
            found,
        })
    }

    /// Insert a tuple; returns `Ok(true)` if it was new. Duplicates are
    /// dropped by [`Relation::insert`].
    pub fn insert(&self, tuple: &[Value]) -> Result<bool, SharedDbError> {
        self.check_arity(tuple.len())?;
        let mut rel = lock_or_recover(self.store.write());
        if !rel.insert(tuple) {
            return Ok(false);
        }
        // Publish while still holding the write lock so `committed` can
        // never run ahead of a concurrent writer's in-flight push.
        self.committed.store(rel.len(), Ordering::Release);
        Ok(true)
    }

    /// Insert a batch of rows under one lock (recovery, see
    /// [`Relation::load_batch`]). Returns the number of new rows committed.
    pub fn load_batch(&self, batch: Vec<Box<[Value]>>) -> Result<usize, SharedDbError> {
        for tuple in &batch {
            self.check_arity(tuple.len())?;
        }
        let mut rel = lock_or_recover(self.store.write());
        let fresh = rel.load_batch(batch);
        self.committed.store(rel.len(), Ordering::Release);
        Ok(fresh)
    }

    /// Copy of the immutable row range `[start, end)` (both clamped to the
    /// committed rows), in insertion order; the read lock is held only for
    /// the copy. Incremental consumers use this to read exactly the rows
    /// ingested between two watermarks they observed — the append-only
    /// contract makes any such range immutable.
    pub fn range(&self, start: usize, end: usize) -> Vec<Vec<Value>> {
        let rel = lock_or_recover(self.store.read());
        let end = end.min(rel.len());
        let start = start.min(end);
        rel.rows_in(start, end).map(|(_, r)| r.to_vec()).collect()
    }

    /// Copy of the first `end` committed rows as boxed rows (an [`Edb`]
    /// batch), under one read lock.
    fn rows_to(&self, end: usize) -> Vec<Box<[Value]>> {
        let rel = lock_or_recover(self.store.read());
        let end = end.min(rel.len());
        rel.rows_in(0, end).map(|(_, r)| r.into()).collect()
    }
}

/// A shared fact database: one [`SharedRelation`] per predicate, a global
/// insert version, and cheap consistent snapshots.
#[derive(Debug, Default)]
pub struct SharedDatabase {
    rels: RwLock<BTreeMap<PredRef, Arc<SharedRelation>>>,
    /// Total successful inserts across all relations (monotone).
    version: AtomicU64,
}

impl SharedDatabase {
    /// Empty shared database.
    pub fn new() -> SharedDatabase {
        SharedDatabase::default()
    }

    /// The global insert version: bumped once per new fact, monotone.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Register (or look up) a predicate. Unlike
    /// [`Database::register`](crate::Database::register) this does not
    /// panic on an arity clash — the server reports the error in-protocol.
    pub fn register(
        &self,
        pred: &PredRef,
        arity: usize,
    ) -> Result<Arc<SharedRelation>, SharedDbError> {
        let known = lock_or_recover(self.rels.read()).get(pred).map(Arc::clone);
        let rel = known.unwrap_or_else(|| {
            let mut g = lock_or_recover(self.rels.write());
            let rel = g
                .entry(pred.clone())
                .or_insert_with(|| Arc::new(SharedRelation::new(arity)));
            Arc::clone(rel)
        });
        rel.check_arity(arity).map_err(|e| e.for_pred(pred))?;
        Ok(rel)
    }

    /// The arity `pred` is registered at, if it is registered.
    pub fn arity(&self, pred: &PredRef) -> Option<usize> {
        lock_or_recover(self.rels.read())
            .get(pred)
            .map(|rel| rel.arity())
    }

    /// Insert one fact, registering the predicate on first sight. Returns
    /// `Ok(true)` if the fact was new.
    pub fn insert(&self, pred: &PredRef, tuple: &[Value]) -> Result<bool, SharedDbError> {
        let rel = self.register(pred, tuple.len())?;
        let new = rel.insert(tuple).map_err(|e| e.for_pred(pred))?;
        if new {
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        Ok(new)
    }

    /// Load one predicate's rows (snapshot recovery): register once,
    /// insert the rows in batch order, and bump the version by the new-row
    /// count.
    pub fn load_batch(
        &self,
        pred: &PredRef,
        arity: usize,
        rows: Vec<Box<[Value]>>,
    ) -> Result<usize, SharedDbError> {
        let rel = self.register(pred, arity)?;
        let fresh = rel.load_batch(rows).map_err(|e| e.for_pred(pred))?;
        if fresh > 0 {
            self.version.fetch_add(fresh as u64, Ordering::AcqRel);
        }
        Ok(fresh)
    }

    /// Total committed facts.
    pub fn total_facts(&self) -> usize {
        let g = lock_or_recover(self.rels.read());
        g.values().map(|r| r.len()).sum()
    }

    /// Number of registered predicates.
    pub fn pred_count(&self) -> usize {
        lock_or_recover(self.rels.read()).len()
    }

    /// Capture a consistent snapshot: an `Arc` handle and the committed
    /// watermark of every relation, plus the global version.
    ///
    /// The version is read *before* the watermarks: a concurrent insert can
    /// then only make the snapshot look *older* than the rows it exposes,
    /// so version-tagged caches recompute rather than serve stale answers.
    pub fn snapshot(&self) -> DbSnapshot {
        let version = self.version();
        let g = lock_or_recover(self.rels.read());
        let rels = g
            .iter()
            .map(|(p, r)| (p.clone(), Arc::clone(r), r.len()))
            .collect();
        DbSnapshot { rels, version }
    }
}

/// A consistent read view of a [`SharedDatabase`]: for every relation, the
/// immutable row prefix `[0, watermark)` as of capture time.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    rels: Vec<(PredRef, Arc<SharedRelation>, usize)>,
    version: u64,
}

impl DbSnapshot {
    /// The global version observed at (or just before) capture.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Facts visible in this snapshot.
    pub fn total_facts(&self) -> usize {
        self.rels.iter().map(|(_, _, w)| w).sum()
    }

    /// Visible row count of one predicate (0 when absent).
    pub fn count(&self, pred: &PredRef) -> usize {
        self.rels
            .iter()
            .find(|(p, _, _)| p == pred)
            .map_or(0, |(_, _, w)| *w)
    }

    /// The `(pred, watermark)` pairs of this snapshot, restricted to the
    /// given support set — the cache-validity fingerprint for a query that
    /// reads exactly those predicates.
    pub fn watermarks_for<'a>(
        &self,
        support: impl IntoIterator<Item = &'a PredRef>,
    ) -> Vec<(PredRef, usize)> {
        support
            .into_iter()
            .map(|p| (p.clone(), self.count(p)))
            .collect()
    }

    /// The predicates with at least one visible row in this snapshot.
    pub fn preds(&self) -> Vec<PredRef> {
        self.rels
            .iter()
            .filter(|(_, _, w)| *w > 0)
            .map(|(p, _, _)| p.clone())
            .collect()
    }

    /// Rows of one predicate visible in this snapshot, in insertion order.
    pub fn rows(&self, pred: &PredRef) -> Vec<Vec<Value>> {
        self.rels
            .iter()
            .find(|(p, _, _)| p == pred)
            .map_or_else(Vec::new, |(_, rel, w)| rel.range(0, *w))
    }

    /// Rows of one predicate from `start` up to this snapshot's watermark,
    /// in ingestion order — the delta a consumer that already applied
    /// `[0, start)` needs to catch up to the snapshot. Empty when `start`
    /// is at or past the watermark (including for absent predicates).
    pub fn rows_from(&self, pred: &PredRef, start: usize) -> Vec<Vec<Value>> {
        self.rels
            .iter()
            .find(|(p, _, _)| p == pred)
            .map_or_else(Vec::new, |(_, rel, w)| rel.range(start, *w))
    }

    /// The cold input of a query form: the rows of the `support`
    /// predicates visible in this snapshot, each copied once, under its
    /// relation's read lock, into an [`Edb`] batch. Predicates with no
    /// visible row are left out; the rest come in `PredRef` order, the
    /// order the snapshot lists relations in.
    pub fn edb(&self, support: &BTreeSet<PredRef>) -> Edb {
        let batches = self
            .rels
            .iter()
            .filter(|(pred, _, w)| *w > 0 && support.contains(pred))
            .map(|(pred, rel, w)| (pred.clone(), rel.rows_to(*w)))
            .collect();
        Edb { batches }
    }

    /// Materialize the snapshot as a [`FactSet`], copying only up to each
    /// relation's watermark.
    pub fn to_factset(&self) -> FactSet {
        let mut fs = FactSet::new();
        for (pred, rel, w) in &self.rels {
            for row in rel.range(0, *w) {
                fs.insert(pred.clone(), row);
            }
        }
        fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn insert_dedups_and_versions() {
        let db = SharedDatabase::new();
        let p = PredRef::new("p");
        assert!(db.insert(&p, &t(&[1, 2])).unwrap());
        assert!(!db.insert(&p, &t(&[1, 2])).unwrap());
        assert!(db.insert(&p, &t(&[2, 3])).unwrap());
        assert_eq!(db.version(), 2, "duplicates do not bump the version");
        assert_eq!(db.total_facts(), 2);
    }

    #[test]
    fn arity_clash_is_an_error_not_a_panic() {
        let db = SharedDatabase::new();
        let p = PredRef::new("p");
        db.insert(&p, &t(&[1, 2])).unwrap();
        let e = db.insert(&p, &t(&[1])).unwrap_err();
        assert!(
            matches!(
                e,
                SharedDbError::Arity {
                    expected: 2,
                    found: 1,
                    ..
                }
            ),
            "{e:?}"
        );
        assert!(e.to_string().contains("arity 1"));
    }

    #[test]
    fn snapshot_is_a_frozen_prefix() {
        let db = SharedDatabase::new();
        let p = PredRef::new("p");
        for i in 0..5 {
            db.insert(&p, &t(&[i])).unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.count(&p), 5);
        // Later inserts are invisible through the snapshot.
        for i in 5..10 {
            db.insert(&p, &t(&[i])).unwrap();
        }
        assert_eq!(snap.count(&p), 5);
        assert_eq!(snap.total_facts(), 5);
        let rows = snap.rows(&p);
        assert_eq!(rows, (0..5).map(|i| t(&[i])).collect::<Vec<_>>());
        // A fresh snapshot sees everything, in insertion order.
        let snap2 = db.snapshot();
        assert_eq!(snap2.rows(&p), (0..10).map(|i| t(&[i])).collect::<Vec<_>>());
        assert!(snap2.version() > snap.version());
    }

    #[test]
    fn snapshot_to_factset_and_watermarks() {
        let db = SharedDatabase::new();
        let p = PredRef::new("p");
        let q = PredRef::new("q");
        db.insert(&p, &t(&[1, 2])).unwrap();
        db.insert(&q, &t(&[7])).unwrap();
        let snap = db.snapshot();
        let fs = snap.to_factset();
        assert_eq!(fs.len(), 2);
        assert!(fs.contains(&p, &t(&[1, 2])));
        let wm = snap.watermarks_for([&p, &q, &PredRef::new("absent")]);
        assert_eq!(
            wm,
            vec![(p.clone(), 1), (q.clone(), 1), (PredRef::new("absent"), 0)]
        );
    }

    #[test]
    fn poisoned_lock_is_recovered_and_usable() {
        let db = Arc::new(SharedDatabase::new());
        let p = PredRef::new("p");
        db.insert(&p, &t(&[1])).unwrap();
        // Poison the relation lock: panic while holding the write guard.
        {
            let db = Arc::clone(&db);
            let p = p.clone();
            std::thread::spawn(move || {
                let rel = db.register(&p, 1).unwrap();
                let _g = rel.store.write().unwrap();
                panic!("poison the relation lock on purpose");
            })
            .join()
            .unwrap_err();
        }
        // Also poison the database-level relation-map lock.
        {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let _g = db.rels.write().unwrap();
                panic!("poison the db lock on purpose");
            })
            .join()
            .unwrap_err();
        }
        // Every operation still works: reads, writes, snapshots.
        assert!(db.insert(&p, &t(&[2])).unwrap());
        assert!(!db.insert(&p, &t(&[1])).unwrap(), "dedup state survived");
        let snap = db.snapshot();
        assert_eq!(snap.count(&p), 2);
        assert_eq!(snap.rows(&p), vec![t(&[1]), t(&[2])]);
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.pred_count(), 1);
    }

    #[test]
    fn rows_from_reads_the_delta_between_watermarks() {
        let db = SharedDatabase::new();
        let p = PredRef::new("p");
        for i in 0..3 {
            db.insert(&p, &t(&[i])).unwrap();
        }
        let early = db.snapshot();
        for i in 3..7 {
            db.insert(&p, &t(&[i])).unwrap();
        }
        let late = db.snapshot();
        // The delta a consumer at the early watermark must apply.
        assert_eq!(
            late.rows_from(&p, early.count(&p)),
            (3..7).map(|i| t(&[i])).collect::<Vec<_>>()
        );
        // Caught-up, past-the-end, and absent-pred reads are all empty.
        assert!(late.rows_from(&p, late.count(&p)).is_empty());
        assert!(late.rows_from(&p, 99).is_empty());
        assert!(late.rows_from(&PredRef::new("absent"), 0).is_empty());
        // The early snapshot never exposes the later rows.
        assert!(early.rows_from(&p, 3).is_empty());
    }

    #[test]
    fn load_batch_dedups_seals_and_matches_per_row_inserts() {
        let bulk = SharedDatabase::new();
        let slow = SharedDatabase::new();
        let p = PredRef::new("p");
        // A batch with internal duplicates, in a deliberate order.
        let batch: Vec<Box<[Value]>> = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
            .iter()
            .map(|&v| t(&[v]).into_boxed_slice())
            .collect();
        let fresh = bulk.load_batch(&p, 1, batch.clone()).unwrap();
        for row in &batch {
            slow.insert(&p, row).unwrap();
        }
        assert_eq!(fresh, 7);
        assert_eq!(bulk.version(), slow.version());
        assert_eq!(bulk.snapshot().rows(&p), slow.snapshot().rows(&p));
        // A second batch over a non-empty store: the same dedup against
        // already-stored rows.
        let fresh = bulk.load_batch(&p, 1, batch).unwrap();
        assert_eq!(fresh, 0);
        // Arity clashes are reported in-protocol, never panics.
        let e = bulk.load_batch(&p, 2, vec![]).unwrap_err();
        assert!(matches!(e, SharedDbError::Arity { .. }));
        // Per-row inserts after the batch keep its membership.
        assert!(!bulk.insert(&p, &t(&[3])).unwrap());
        assert!(bulk.insert(&p, &t(&[42])).unwrap());
    }

    #[test]
    fn missing_pred_reads_as_empty() {
        let db = SharedDatabase::new();
        let snap = db.snapshot();
        assert_eq!(snap.count(&PredRef::new("nope")), 0);
        assert!(snap.rows(&PredRef::new("nope")).is_empty());
        assert_eq!(snap.version(), 0);
    }
}
