//! The prepared-query cache and its invalidation logic.
//!
//! Keyed by the paper's query *form* — `(rule-set fingerprint, query
//! predicate, existential adornment)` — each entry stores the fully
//! optimized program from `datalog-opt` ([`PreparedProgram`]), so a repeat
//! of the same form skips the optimizer entirely. On top of that, each
//! entry carries a one-slot *answer* cache: the rendered payload of the
//! last evaluation, tagged with the per-predicate snapshot watermarks of
//! the form's EDB support set. A later identical query can reuse the
//! payload iff none of the supporting relations has grown past the
//! recorded watermark.
//!
//! Ingestion invalidates *incrementally*: a new fact for predicate `p`
//! clears the answer slots only of entries whose optimized program
//! transitively reads `p` (the dependency analysis of
//! `datalog_opt::prepare::edb_support`, built on the same reachability
//! machinery as the §3.1 connected-components phase). Prepared programs
//! themselves are never invalidated by facts — the optimization depends
//! only on the rules, which the fingerprint tracks.

//! Since PR 7 an entry may additionally *pin a resident evaluation*
//! ([`ResidentForm`]): the retained semi-naive state of
//! [`datalog_engine::incremental::ResidentEval`] plus, per support
//! predicate, how many rows of the shared EDB store have been applied to
//! it. Ingestion then becomes *propagation* instead of invalidation for
//! these forms: the server pushes exactly the rows between the applied
//! counts and the current watermarks through the resident deltas. Resident
//! state is memory-heavy (a full saturated database per form), so it has
//! its own, separately bounded LRU inside the prepared cache
//! (`--resident-forms=N`; 0 disables pinning entirely and restores the
//! invalidate-and-recompute behavior).

//! Since PR 9 residents are wrapped in `Arc<Mutex<…>>` so that a drain
//! can propagate deltas *without holding the global cache lock*: the
//! ingest path only flips cheap bookkeeping (`pending_since`,
//! `drain_queued`) under the cache mutex, and the actual propagation
//! locks one form at a time. The lock order is always cache → form, and
//! the cache lock is never held while waiting on a form lock that a
//! drain holds (readers use `try_lock` and fall back to the stale answer
//! memo). The answer memo itself is no longer cleared by ingestion — it
//! is *marked stale* and kept, becoming the serve-while-draining asset
//! for bounded-staleness reads (its age is a correct upper staleness
//! bound: every row it misses arrived after it was published).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datalog_ast::PredRef;
use datalog_engine::incremental::ResidentEval;
use datalog_opt::PreparedProgram;

/// Prepared forms the server keeps before LRU eviction. Prepared programs
/// are small and depend only on the rules, so one generous bound serves
/// every deployment; resident state has its own bound
/// (`--resident-forms`).
pub const PREPARED_CAPACITY: usize = 256;

/// Cache key: the query form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FormKey {
    /// [`datalog_opt::fingerprint_rules`] of the server's rule set.
    pub fingerprint: u64,
    /// Base name of the query predicate.
    pub pred: String,
    /// The existential adornment, rendered (`"nd"`).
    pub adornment: String,
}

/// One rendered answer table: what every answer source hands to the
/// response tail. Cloning shares the payload.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The exact payload `QUERY` returns (what `xdl run` would print).
    pub payload: Arc<str>,
    /// Number of answers (for the response header).
    pub answers: usize,
    /// Frontier version the payload was rendered at (the resident's
    /// [`Frontier::version`](datalog_engine::incremental::Frontier) for
    /// resident serves, the DB snapshot version for cold evaluations).
    pub frontier: u64,
}

/// A memoized answer payload, valid while the support watermarks hold.
#[derive(Debug, Clone)]
pub struct CachedAnswers {
    /// Rendered query atom the payload answers (column names and constants
    /// matter for byte-identity, not just the form).
    pub query_repr: String,
    /// `(pred, committed row count)` for every predicate in the form's EDB
    /// support set, at evaluation time.
    pub watermarks: Vec<(PredRef, usize)>,
    /// The memoized table.
    pub table: Rendered,
    /// When the payload was rendered. `now - published_at` bounds the
    /// staleness of serving this memo: every row it misses arrived later.
    pub published_at: Instant,
    /// Set by ingestion instead of dropping the slot: the payload no
    /// longer reflects every acknowledged fact, but remains servable to
    /// bounded-staleness readers while a drain is in flight.
    pub stale: bool,
}

/// Retained incremental evaluation for one form: the resident frontier
/// plus how far into each shared relation it has been advanced.
#[derive(Debug)]
pub struct ResidentForm {
    /// The resident semi-naive state (owns the saturated database).
    pub eval: ResidentEval,
    /// Per support predicate: count of shared-store rows already applied.
    /// Catch-up reads `rows_from(pred, applied[pred])` up to the current
    /// watermark — idempotent (the resident dedups) and gap-free (the
    /// shared store is append-only).
    pub applied: BTreeMap<PredRef, usize>,
}

/// One cache entry: the prepared program plus reuse bookkeeping.
#[derive(Debug)]
pub struct Entry {
    /// The optimizer's output for this form. Shared, so a query stage can
    /// keep reading it after the cache lock drops.
    pub prepared: Arc<PreparedProgram>,
    /// One-slot answer cache.
    pub answers: Option<CachedAnswers>,
    /// Pinned resident evaluation, if this form is being maintained
    /// incrementally (bounded separately — see [`PreparedCache::pin_resident`]).
    /// Shared so drains can propagate without holding the cache lock;
    /// lock order is cache → form, and the cache lock must never be held
    /// while *blocking* on the form lock.
    pub resident: Option<Arc<Mutex<ResidentForm>>>,
    /// Mirror of the resident's applied watermarks, maintained under the
    /// cache lock (written when a drain finishes). Lets the query path
    /// compute watermark lag without touching the form lock.
    pub applied_mirror: BTreeMap<PredRef, usize>,
    /// Earliest instant at which rows the resident has *not* applied may
    /// have arrived (`None` = fully drained at last check). Set to the
    /// drain's snapshot-capture time when lag remains: any row beyond
    /// that snapshot arrived after it was captured, so `now -
    /// pending_since` is a correct upper staleness bound.
    pub pending_since: Option<Instant>,
    /// A background drain or rebuild for this form is queued or running —
    /// suppresses duplicate maintenance jobs.
    pub drain_queued: bool,
    /// Consecutive failed rebuild attempts since the last healthy drain
    /// (drives the capped exponential backoff; reset on success).
    pub rebuild_attempts: u32,
    /// How often this form was served without re-optimizing.
    pub hits: u64,
    /// LRU clock value of the last use.
    last_used: u64,
}

impl Entry {
    /// What this form would keep resident: its prepared program, when the
    /// form is monotone and its bound class is admitted. The one
    /// eligibility test — first pin, lazy rebuild and background rebuild
    /// all ask here (whether pinning is enabled at all is the caller's
    /// `--resident-forms` check).
    pub fn pin_target(&self) -> Option<&Arc<PreparedProgram>> {
        (ResidentEval::supports(&self.prepared.program)
            && ResidentEval::admits_bound_class(self.prepared.bound_class))
        .then_some(&self.prepared)
    }

    /// Drop resident state and every piece of bookkeeping that describes
    /// it (used by eviction, poisoning, and capacity shrink).
    pub fn clear_resident(&mut self) {
        self.resident = None;
        self.applied_mirror.clear();
        self.pending_since = None;
    }
}

/// The prepared-query cache: bounded, LRU-evicted.
#[derive(Debug)]
pub struct PreparedCache {
    entries: BTreeMap<FormKey, Entry>,
    capacity: usize,
    /// Resident-form bound (0 = pinning disabled). Independent of
    /// `capacity`: prepared programs are cheap, resident databases are not.
    resident_capacity: usize,
    clock: u64,
    /// Total answer-slot invalidations caused by ingestion.
    pub invalidations: u64,
}

impl PreparedCache {
    /// Cache holding at most `capacity` prepared forms.
    pub fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            resident_capacity: 0,
            clock: 0,
            invalidations: 0,
        }
    }

    /// Bound the number of entries allowed to hold a [`ResidentForm`]
    /// (0 disables pinning). Shrinking below the current resident count
    /// drops the least recently used residents immediately.
    pub fn set_resident_capacity(&mut self, n: usize) {
        self.resident_capacity = n;
        while self.resident_count() > self.resident_capacity {
            self.evict_one_resident(None);
        }
    }

    /// Entries currently holding resident state.
    pub fn resident_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.resident.is_some())
            .count()
    }

    /// Drop the least recently used resident (excluding `keep`, if given).
    fn evict_one_resident(&mut self, keep: Option<&FormKey>) {
        if let Some(victim) = self
            .entries
            .iter()
            .filter(|(k, e)| e.resident.is_some() && Some(*k) != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            if let Some(e) = self.entries.get_mut(&victim) {
                e.clear_resident();
            }
        }
    }

    /// Pin resident state onto an existing entry, evicting the least
    /// recently used other resident if the bound is reached. Returns
    /// `false` (dropping `form`) when pinning is disabled or the entry is
    /// gone — both fine: the form simply falls back to recompute.
    pub fn pin_resident(&mut self, key: &FormKey, form: ResidentForm) -> bool {
        if self.resident_capacity == 0 || !self.entries.contains_key(key) {
            return false;
        }
        while self.resident_count() >= self.resident_capacity
            && self.entries.get(key).is_some_and(|e| e.resident.is_none())
        {
            self.evict_one_resident(Some(key));
        }
        if let Some(e) = self.entries.get_mut(key) {
            e.applied_mirror = form.applied.clone();
            e.pending_since = None;
            e.rebuild_attempts = 0;
            e.resident = Some(Arc::new(Mutex::new(form)));
            true
        } else {
            false
        }
    }

    /// Iterate every entry (key + mutable entry), without touching LRU
    /// clocks — ingestion-side catch-up walks residents through this.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&FormKey, &mut Entry)> {
        self.entries.iter_mut()
    }

    /// Number of prepared forms currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a form *without* bumping its LRU clock — maintenance
    /// bookkeeping (finishing a drain, recording a rebuild) must not make
    /// a form look recently used.
    pub fn peek_mut(&mut self, key: &FormKey) -> Option<&mut Entry> {
        self.entries.get_mut(key)
    }

    /// Look up a form, bumping its LRU clock. Callers decide whether the
    /// access counts as a reuse (bump [`Entry::hits`] themselves) — the
    /// bookkeeping lookup after an evaluation should not inflate the count.
    pub fn get_mut(&mut self, key: &FormKey) -> Option<&mut Entry> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.last_used = clock;
            e
        })
    }

    /// Insert a freshly prepared form and return it, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&mut self, key: FormKey, prepared: PreparedProgram) -> &mut Entry {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.entry(key).or_insert(Entry {
            prepared: Arc::new(prepared),
            answers: None,
            resident: None,
            applied_mirror: BTreeMap::new(),
            pending_since: None,
            drain_queued: false,
            rebuild_attempts: 0,
            hits: 0,
            last_used: clock,
        })
    }

    /// A fact arrived for (base) predicate `pred`: mark the answer slot of
    /// every dependent entry stale. The payload is *kept* — it remains the
    /// serve-while-draining asset for bounded-staleness readers, whose
    /// staleness it bounds by its age. Returns how many live slots were
    /// newly staled.
    pub fn invalidate_edb(&mut self, pred: &PredRef) -> usize {
        let mut staled = 0;
        for e in self.entries.values_mut() {
            if let Some(ans) = e.answers.as_mut() {
                if !ans.stale && e.prepared.depends_on(pred) {
                    ans.stale = true;
                    staled += 1;
                }
            }
        }
        self.invalidations += staled as u64;
        staled
    }

    /// Total prepared-form hits across all entries.
    pub fn total_hits(&self) -> u64 {
        self.entries.values().map(|e| e.hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_program, Adornment};
    use datalog_opt::{fingerprint_rules, prepare, OptimizerConfig};

    fn prep(src: &str, pred: &str, ad: &str) -> (FormKey, PreparedProgram) {
        let p = parse_program(src).unwrap().program;
        let adornment = Adornment::parse(ad).unwrap();
        let prepared = prepare(
            &p.rules,
            &PredRef::new(pred),
            &adornment,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let key = FormKey {
            fingerprint: fingerprint_rules(&p.rules),
            pred: pred.to_string(),
            adornment: ad.to_string(),
        };
        (key, prepared)
    }

    #[test]
    fn lru_eviction_keeps_recent_forms() {
        let mut cache = PreparedCache::new(2);
        let (k1, p1) = prep("a(X, Y) :- p(X, Y).\n?- a(X, _).", "a", "nd");
        let (k2, p2) = prep("b(X, Y) :- q(X, Y).\n?- b(X, _).", "b", "nd");
        let (k3, p3) = prep("c(X, Y) :- r(X, Y).\n?- c(X, _).", "c", "nd");
        cache.insert(k1.clone(), p1);
        cache.insert(k2.clone(), p2);
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get_mut(&k1).is_some());
        cache.insert(k3.clone(), p3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get_mut(&k2).is_none(), "LRU entry evicted");
        assert!(cache.get_mut(&k1).is_some());
        assert!(cache.get_mut(&k3).is_some());
    }

    fn resident(src: &str) -> ResidentForm {
        use datalog_engine::{EvalOptions, FactSet};
        let p = parse_program(src).unwrap().program;
        ResidentForm {
            eval: ResidentEval::new(&p, &FactSet::new(), &EvalOptions::default()).unwrap(),
            applied: BTreeMap::new(),
        }
    }

    #[test]
    fn resident_pinning_is_bounded_by_its_own_lru() {
        let mut cache = PreparedCache::new(8);
        let (k1, p1) = prep("a(X, Y) :- p(X, Y).\n?- a(X, _).", "a", "nd");
        let (k2, p2) = prep("b(X, Y) :- q(X, Y).\n?- b(X, _).", "b", "nd");
        cache.insert(k1.clone(), p1);
        cache.insert(k2.clone(), p2);
        // Disabled: pinning refuses.
        assert!(!cache.pin_resident(&k1, resident("a(X, Y) :- p(X, Y).")));
        assert_eq!(cache.resident_count(), 0);
        cache.set_resident_capacity(1);
        assert!(cache.pin_resident(&k1, resident("a(X, Y) :- p(X, Y).")));
        assert_eq!(cache.resident_count(), 1);
        // Touch k2 then pin it: k1's resident is the LRU victim, but both
        // prepared entries survive.
        assert!(cache.get_mut(&k2).is_some());
        assert!(cache.pin_resident(&k2, resident("b(X, Y) :- q(X, Y).")));
        assert_eq!(cache.resident_count(), 1);
        assert!(cache.get_mut(&k1).unwrap().resident.is_none());
        assert!(cache.get_mut(&k2).unwrap().resident.is_some());
        assert_eq!(cache.len(), 2);
        // Shrinking to zero drops the survivor too.
        cache.set_resident_capacity(0);
        assert_eq!(cache.resident_count(), 0);
    }

    #[test]
    fn prepared_eviction_takes_the_resident_with_it() {
        let mut cache = PreparedCache::new(1);
        cache.set_resident_capacity(4);
        let (k1, p1) = prep("a(X, Y) :- p(X, Y).\n?- a(X, _).", "a", "nd");
        let (k2, p2) = prep("b(X, Y) :- q(X, Y).\n?- b(X, _).", "b", "nd");
        cache.insert(k1.clone(), p1);
        assert!(cache.pin_resident(&k1, resident("a(X, Y) :- p(X, Y).")));
        cache.insert(k2, p2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_count(), 0, "evicted entry drops its state");
        assert!(cache.get_mut(&k1).is_none());
    }

    #[test]
    fn invalidation_is_dependency_scoped() {
        let mut cache = PreparedCache::new(8);
        let (k1, p1) = prep("a(X, Y) :- p(X, Y).\n?- a(X, _).", "a", "nd");
        let (k2, p2) = prep("b(X, Y) :- q(X, Y).\n?- b(X, _).", "b", "nd");
        let memo = CachedAnswers {
            query_repr: "x".into(),
            watermarks: vec![],
            table: Rendered {
                payload: "".into(),
                answers: 0,
                frontier: 1,
            },
            published_at: Instant::now(),
            stale: false,
        };
        cache.insert(k1.clone(), p1).answers = Some(memo.clone());
        cache.insert(k2.clone(), p2).answers = Some(memo);
        // A fact for p stales only the form over a (which reads p) — the
        // payload survives as the serve-while-draining asset.
        assert_eq!(cache.invalidate_edb(&PredRef::new("p")), 1);
        let a1 = cache.get_mut(&k1).unwrap().answers.as_ref().unwrap();
        assert!(a1.stale);
        assert!(!cache.get_mut(&k2).unwrap().answers.as_ref().unwrap().stale);
        // An unrelated predicate stales nothing; re-staling is not
        // double-counted.
        assert_eq!(cache.invalidate_edb(&PredRef::new("zzz")), 0);
        assert_eq!(cache.invalidate_edb(&PredRef::new("p")), 0);
        assert_eq!(cache.invalidations, 1);
    }
}
