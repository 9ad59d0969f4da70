//! The prepared-query cache: one entry per query form, and each form's
//! residency as one state.
//!
//! Keyed by the paper's query *form* — `(rule-set fingerprint, query
//! predicate, existential adornment)` — each [`Entry`] stores the fully
//! optimized program from `datalog-opt` ([`PreparedProgram`]), so a repeat
//! of the same form skips the optimizer entirely. Prepared programs are
//! never invalidated by facts — the optimization depends only on the
//! rules, which the fingerprint tracks.
//!
//! On top of that an entry carries a one-slot answer memo
//! ([`CachedAnswers`]): the rendered payload of the last answer, tagged
//! with the [`Watermarks`] of the form's EDB support set it was rendered
//! at. Ingestion never touches it: a later identical query reuses the
//! payload iff its snapshot still sits at exactly those watermarks, and a
//! relaxed reader may be served it past that (its age bounds its
//! staleness: every row it misses arrived after it was published).
//!
//! Whether the form is maintained incrementally is its [`Residency`]:
//! `Cold` (evaluate from the snapshot), `Live` (a pinned [`ResidentForm`]
//! that ingestion propagates deltas through) or `Lost` (poisoned; a
//! rebuild is due). Resident state is memory-heavy (a full saturated
//! database per form), so `Live` entries have their own, separately
//! bounded LRU (`--resident-forms=N`; 0 disables pinning).
//!
//! The form sits behind its own mutex so a drain propagates without the
//! cache lock. Lock order is cache → form, and the cache lock is never
//! held while *blocking* on a form lock; what a decision needs without
//! the form lock (applied watermarks, staleness anchor) is a field of
//! `Residency::Live`, written in the one cache-lock scope that ends each
//! drain.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datalog_ast::PredRef;
use datalog_engine::incremental::ResidentEval;
use datalog_engine::DbSnapshot;
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

/// Committed row count per predicate of a form's EDB support set: where a
/// memo was rendered, or how far a resident form has been advanced.
pub type Watermarks = BTreeMap<PredRef, usize>;

/// `snapshot`'s watermarks over a form's support set.
pub fn watermarks_at(prepared: &PreparedProgram, snapshot: &DbSnapshot) -> Watermarks {
    snapshot
        .watermarks_for(&prepared.support)
        .into_iter()
        .collect()
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
    /// The support watermarks the payload was rendered at.
    pub watermarks: Watermarks,
    /// The memoized table.
    pub table: Rendered,
    /// When the payload was rendered. `now - published_at` bounds the
    /// staleness of serving this memo: every row it misses arrived later.
    pub published_at: Instant,
}

impl CachedAnswers {
    /// Whether `snapshot` sits at exactly the watermarks the payload was
    /// rendered at (no acknowledged row is missing from it).
    pub fn current_at(&self, snapshot: &DbSnapshot) -> bool {
        self.watermarks
            .iter()
            .all(|(pred, n)| snapshot.count(pred) == *n)
    }
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
    pub applied: Watermarks,
}

/// Rows a live form has not applied yet.
#[derive(Debug, Clone, Copy)]
pub struct Lag {
    /// Earliest instant at which an unapplied row may have arrived: the
    /// capture time of the oldest snapshot that showed the form behind.
    /// Any row past that snapshot arrived after it was captured, so
    /// `now - since` is a correct upper staleness bound.
    pub since: Instant,
    /// The catch-up was priced off the request path: the maintenance
    /// thread owes this form a drain.
    pub deferred: bool,
}

/// How a form is served and maintained.
#[derive(Debug)]
pub enum Residency {
    /// No resident state: never pinned, not eligible, or evicted by the
    /// resident LRU. An eligible form pins with its next cold evaluation.
    Cold,
    /// Maintained incrementally.
    Live {
        /// The pinned state. Shared so drains can propagate without the
        /// cache lock.
        form: Arc<Mutex<ResidentForm>>,
        /// Copy of the form's applied watermarks as of its last finished
        /// drain (per-predicate max), readable without the form lock.
        applied: Watermarks,
        /// `None` = fully drained at last check.
        lag: Option<Lag>,
    },
    /// Poisoned by a failed propagation and dropped. The maintenance
    /// thread rebuilds it once `retry_at` has passed; an eligible query
    /// arriving first rebuilds it lazily.
    Lost {
        /// Consecutive failures since the form was last live (drives the
        /// capped exponential backoff).
        attempts: u32,
        /// Earliest instant of the next background rebuild.
        retry_at: Instant,
    },
}

/// One cache entry: the prepared program plus reuse bookkeeping.
#[derive(Debug)]
pub struct Entry {
    /// The optimizer's output for this form. Shared, so a query stage can
    /// keep reading it after the cache lock drops.
    pub prepared: Arc<PreparedProgram>,
    /// One-slot answer memo.
    pub memo: Option<CachedAnswers>,
    /// Resident state, bounded separately — see
    /// [`PreparedCache::pin_resident`].
    pub residency: Residency,
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

    /// The pinned form, when the entry is live.
    pub fn live_form(&self) -> Option<&Arc<Mutex<ResidentForm>>> {
        match &self.residency {
            Residency::Live { form, .. } => Some(form),
            _ => None,
        }
    }

    /// Fill the answer slot with `table`, rendered for `query_repr` at
    /// `watermarks` and aging from `published_at`.
    pub fn memoize(
        &mut self,
        query_repr: &str,
        table: &Rendered,
        watermarks: Watermarks,
        published_at: Instant,
    ) {
        self.memo = Some(CachedAnswers {
            query_repr: query_repr.to_string(),
            watermarks,
            table: table.clone(),
            published_at,
        });
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
}

impl PreparedCache {
    /// Cache holding at most `capacity` prepared forms.
    pub fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            resident_capacity: 0,
            clock: 0,
        }
    }

    /// Bound the number of live entries (0 disables pinning). Shrinking
    /// below the current count drops the least recently used residents
    /// immediately.
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
            .filter(|e| e.live_form().is_some())
            .count()
    }

    /// Drop the least recently used resident (excluding `keep`, if given).
    fn evict_one_resident(&mut self, keep: Option<&FormKey>) {
        if let Some(victim) = self
            .entries
            .iter_mut()
            .filter(|(k, e)| e.live_form().is_some() && Some(*k) != keep)
            .min_by_key(|(_, e)| e.last_used)
        {
            victim.1.residency = Residency::Cold;
        }
    }

    /// Make an entry live with freshly built state, evicting the least
    /// recently used other resident if the bound is reached. Returns
    /// `false` (dropping `form`) when pinning is disabled, the entry is
    /// gone, or it is live already (a concurrent builder won) — all fine:
    /// the request that built `form` has its answers either way.
    pub fn pin_resident(&mut self, key: &FormKey, form: ResidentForm) -> bool {
        if self.resident_capacity == 0
            || self
                .entries
                .get(key)
                .map_or(true, |e| e.live_form().is_some())
        {
            return false;
        }
        while self.resident_count() >= self.resident_capacity {
            self.evict_one_resident(Some(key));
        }
        let Some(e) = self.entries.get_mut(key) else {
            return false;
        };
        e.residency = Residency::Live {
            applied: form.applied.clone(),
            lag: None,
            form: Arc::new(Mutex::new(form)),
        };
        true
    }

    /// Iterate every entry (key + mutable entry), without touching LRU
    /// clocks — ingestion and maintenance walk residents through this.
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
            memo: None,
            residency: Residency::Cold,
            hits: 0,
            last_used: clock,
        })
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
        assert!(cache.get_mut(&k1).unwrap().live_form().is_none());
        assert!(cache.get_mut(&k2).unwrap().live_form().is_some());
        assert_eq!(cache.len(), 2);
        // A live entry keeps its state: a second builder's form is dropped.
        assert!(!cache.pin_resident(&k2, resident("b(X, Y) :- q(X, Y).")));
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
}
