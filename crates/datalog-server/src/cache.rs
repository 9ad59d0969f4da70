//! The prepared-query cache: one entry per query form, and each form's
//! resident state, if any.
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
//! payload iff its snapshot still sits at exactly those watermarks.
//!
//! Whether the form is maintained incrementally is its
//! [`Entry::resident`]: `None` (cold: evaluate from the snapshot) or a
//! pinned [`ResidentForm`] that ingestion propagates deltas through (live).
//! Resident state is memory-heavy (a full saturated database per form), so
//! live entries have their own, separately bounded LRU
//! (`--resident-forms=N`; 0 disables pinning).
//!
//! A live form also answers every form it [covers](FormKey::covers): the
//! same rule set, predicate and arity, with `n` wherever the covered form
//! has `n`. By Lemma 3.2 those answers are a projection of the live form's, so
//! [`PreparedCache::live_cover`] finds the live form a covered query
//! reads, and [`PreparedCache::pin_resident`] retires the live forms a
//! newly pinned one covers — one resident per predicate serves all of its
//! forms.
//!
//! The form sits behind its own mutex so a drain propagates without the
//! cache lock. Lock order is cache → form, and the cache lock is never
//! held while *blocking* on a form lock: the cache only hands the form
//! handle out, and everything about the form is read under its own lock.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use datalog_ast::PredRef;
use datalog_engine::incremental::ResidentEval;
use datalog_engine::{AnswerSet, DbSnapshot};
use datalog_opt::PreparedProgram;

use crate::protocol::count_lines;
use crate::server::render_answers;

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

impl FormKey {
    /// Whether this form's answers determine `q`'s: the same rule set,
    /// predicate and arity, and `n` wherever `q` has `n` (the *covers*
    /// relation, [`Adornment::is_covered_by`](datalog_ast::Adornment)). By
    /// Lemma 3.2 `q`'s answers are then a projection of this form's, so a
    /// read of `q`'s atom off this form's frontier answers `q`. A form
    /// covers itself.
    pub fn covers(&self, q: &FormKey) -> bool {
        self.fingerprint == q.fingerprint
            && self.pred == q.pred
            && self.adornment.len() == q.adornment.len()
            && (self.adornment.bytes())
                .zip(q.adornment.bytes())
                .all(|(mine, theirs)| mine == b'n' || theirs == b'd')
    }
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
/// response tail, and the response body itself. Cloning shares the
/// payload.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The exact payload `QUERY` returns (what `xdl run` would print).
    pub payload: Arc<str>,
    /// Number of `\n`-terminated lines in `payload` (the header's count).
    pub lines: usize,
    /// Number of answers (for the response header).
    pub answers: usize,
}

impl Rendered {
    /// Render `answers` as `xdl run` prints them.
    pub fn of(answers: &AnswerSet) -> Rendered {
        let payload = render_answers(answers);
        Rendered {
            lines: count_lines(&payload),
            payload: payload.into(),
            answers: answers.len(),
        }
    }
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

/// One cache entry: the prepared program plus reuse bookkeeping.
#[derive(Debug)]
pub struct Entry {
    /// The optimizer's output for this form. Shared, so a query stage can
    /// keep reading it after the cache lock drops.
    pub prepared: Arc<PreparedProgram>,
    /// One-slot answer memo.
    pub memo: Option<CachedAnswers>,
    /// The pinned resident state, shared so drains can propagate without
    /// the cache lock. `None` when the form was never pinned, is not
    /// eligible, was evicted by the resident LRU, or was poisoned; an
    /// eligible form pins with its next cold evaluation. Bounded
    /// separately — see [`PreparedCache::pin_resident`].
    pub resident: Option<Arc<Mutex<ResidentForm>>>,
    /// Whether the form may hold resident state at all, fixed when the
    /// entry is created: the prepared program never changes.
    pinnable: bool,
    /// LRU clock value of the last use.
    last_used: u64,
}

impl Entry {
    /// What this form would keep resident: its prepared program, when the
    /// form is stratifiable ([`ResidentEval::supports`]: negation is kept
    /// resident too) and its bound class is admitted. The one
    /// eligibility test — first pin and rebuild both ask here (whether
    /// pinning is enabled at all is the caller's `--resident-forms`
    /// check). Decided once, when [`PreparedCache::insert`] creates the
    /// entry.
    pub fn pin_target(&self) -> Option<&Arc<PreparedProgram>> {
        self.pinnable.then_some(&self.prepared)
    }

    /// Fill the answer slot with `table`, rendered for `query_repr` at
    /// `watermarks`.
    pub fn memoize(&mut self, query_repr: &str, table: &Rendered, watermarks: Watermarks) {
        self.memo = Some(CachedAnswers {
            query_repr: query_repr.to_string(),
            watermarks,
            table: table.clone(),
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
            .filter(|e| e.resident.is_some())
            .count()
    }

    /// Drop the least recently used resident (excluding `keep`, if given).
    fn evict_one_resident(&mut self, keep: Option<&FormKey>) {
        if let Some(victim) = self
            .entries
            .iter_mut()
            .filter(|(k, e)| e.resident.is_some() && Some(*k) != keep)
            .min_by_key(|(_, e)| e.last_used)
        {
            victim.1.resident = None;
        }
    }

    /// Make an entry live with freshly built state. Every other live form
    /// it covers is retired first (a covered query reads this one now),
    /// then the least recently used other resident is evicted if the bound
    /// is still reached. Returns how many residents were retired, or
    /// `None` (dropping `form`) when pinning is disabled, the entry is
    /// gone, or it is live already (a concurrent builder won) — all fine:
    /// the request that built `form` has its answers either way.
    pub fn pin_resident(&mut self, key: &FormKey, form: ResidentForm) -> Option<usize> {
        if self.resident_capacity == 0
            || self.entries.get(key).map_or(true, |e| e.resident.is_some())
        {
            return None;
        }
        let mut retired = 0;
        for (k, e) in &mut self.entries {
            if e.resident.is_some() && k != key && key.covers(k) {
                e.resident = None;
                retired += 1;
            }
        }
        while self.resident_count() >= self.resident_capacity {
            self.evict_one_resident(Some(key));
        }
        self.entries.get_mut(key)?.resident = Some(Arc::new(Mutex::new(form)));
        Some(retired)
    }

    /// The live form that answers `q` while `q` itself is not live: of the
    /// live forms covering `q`, the one with the fewest `n` positions
    /// (the least to read past), ties broken by key order. Bumps its LRU
    /// clock — a covered read is a use of the covering form.
    pub fn live_cover(&mut self, q: &FormKey) -> Option<(&FormKey, &mut Entry)> {
        self.clock += 1;
        let clock = self.clock;
        let (key, e) = self
            .entries
            .iter_mut()
            .filter(|(k, e)| e.resident.is_some() && *k != q && k.covers(q))
            .min_by_key(|(k, _)| k.adornment.bytes().filter(|&b| b == b'n').count())?;
        e.last_used = clock;
        Some((key, e))
    }

    /// Iterate every entry (key + mutable entry), without touching LRU
    /// clocks — ingestion and `STATS` walk residents through this.
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
    /// bookkeeping (finishing a drain, dropping a poisoned form) must not
    /// make a form look recently used.
    pub fn peek_mut(&mut self, key: &FormKey) -> Option<&mut Entry> {
        self.entries.get_mut(key)
    }

    /// Look up a form, bumping its LRU clock. Callers decide whether the
    /// access counts as a reuse (the `prepared_hit` cache-event counter
    /// that `STATS` and `METRICS` both read) — the bookkeeping lookup
    /// after an evaluation should not inflate it.
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
        self.entries.entry(key).or_insert_with(|| Entry {
            pinnable: ResidentEval::supports(&prepared.program)
                && ResidentEval::admits_bound_class(prepared.bound_class),
            prepared: Arc::new(prepared),
            memo: None,
            resident: None,
            last_used: clock,
        })
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
        assert!(cache
            .pin_resident(&k1, resident("a(X, Y) :- p(X, Y)."))
            .is_none());
        assert_eq!(cache.resident_count(), 0);
        cache.set_resident_capacity(1);
        assert!(cache
            .pin_resident(&k1, resident("a(X, Y) :- p(X, Y)."))
            .is_some());
        assert_eq!(cache.resident_count(), 1);
        // Touch k2 then pin it: k1's resident is the LRU victim, but both
        // prepared entries survive.
        assert!(cache.get_mut(&k2).is_some());
        assert!(cache
            .pin_resident(&k2, resident("b(X, Y) :- q(X, Y)."))
            .is_some());
        assert_eq!(cache.resident_count(), 1);
        assert!(cache.get_mut(&k1).unwrap().resident.is_none());
        assert!(cache.get_mut(&k2).unwrap().resident.is_some());
        assert_eq!(cache.len(), 2);
        // A live entry keeps its state: a second builder's form is dropped.
        assert!(cache
            .pin_resident(&k2, resident("b(X, Y) :- q(X, Y)."))
            .is_none());
        // Shrinking to zero drops the survivor too.
        cache.set_resident_capacity(0);
        assert_eq!(cache.resident_count(), 0);
    }

    fn key(fingerprint: u64, pred: &str, adornment: &str) -> FormKey {
        FormKey {
            fingerprint,
            pred: pred.to_string(),
            adornment: adornment.to_string(),
        }
    }

    #[test]
    fn covers_is_the_adornment_order_within_one_rule_set_and_predicate() {
        let (nn, nd, dn, dd) = (
            key(1, "a", "nn"),
            key(1, "a", "nd"),
            key(1, "a", "dn"),
            key(1, "a", "dd"),
        );
        for (f, q) in [(&nn, &nd), (&nn, &dn), (&nn, &dd), (&nd, &dd), (&dn, &dd)] {
            assert!(f.covers(q), "{f:?} covers {q:?}");
            assert!(!q.covers(f), "{q:?} does not cover {f:?}");
        }
        for f in [&nn, &nd, &dn, &dd] {
            assert!(f.covers(f));
        }
        assert!(!nd.covers(&dn) && !dn.covers(&nd), "incomparable");
        assert!(!key(2, "a", "nn").covers(&nd), "another rule set");
        assert!(!key(1, "b", "nn").covers(&nd), "another predicate");
        assert!(
            !key(1, "a", "nnn").covers(&key(1, "a", "nd")),
            "another arity"
        );
        assert!(!nn.covers(&key(1, "a", "d")), "another arity");
    }

    /// A cache with one prepared entry per key, all pinnable.
    fn cache_of(keys: &[&FormKey]) -> PreparedCache {
        let (_, p) = prep("a(X, Y) :- p(X, Y).\n?- a(X, Y).", "a", "nn");
        let mut cache = PreparedCache::new(16);
        cache.set_resident_capacity(8);
        for k in keys {
            cache.insert((*k).clone(), p.clone());
        }
        cache
    }

    fn live(cache: &mut PreparedCache, k: &FormKey) -> bool {
        cache.peek_mut(k).unwrap().resident.is_some()
    }

    #[test]
    fn pinning_a_covering_form_retires_the_live_forms_it_covers() {
        let (nn, nd, dd, b) = (
            key(1, "a", "nn"),
            key(1, "a", "nd"),
            key(1, "a", "dd"),
            key(1, "b", "nd"),
        );
        let mut cache = cache_of(&[&nn, &nd, &dd, &b]);
        for k in [&nd, &dd, &b] {
            assert_eq!(
                cache.pin_resident(k, resident("a(X, Y) :- p(X, Y).")),
                Some(0)
            );
        }
        assert_eq!(
            cache.pin_resident(&nn, resident("a(X, Y) :- p(X, Y).")),
            Some(2)
        );
        assert!(live(&mut cache, &nn) && live(&mut cache, &b));
        assert!(!live(&mut cache, &nd) && !live(&mut cache, &dd));
        assert_eq!(cache.resident_count(), 2);
    }

    #[test]
    fn the_live_cover_is_the_one_with_the_fewest_needed_positions() {
        let (nnn, nnd, ndn, ndd) = (
            key(1, "t", "nnn"),
            key(1, "t", "nnd"),
            key(1, "t", "ndn"),
            key(1, "t", "ndd"),
        );
        let mut cache = cache_of(&[&nnn, &nnd, &ndn, &ndd]);
        let cover =
            |cache: &mut PreparedCache, q: &FormKey| cache.live_cover(q).map(|(k, _)| k.clone());
        assert_eq!(cover(&mut cache, &ndd), None, "nothing live");
        let pin = |cache: &mut PreparedCache, k: &FormKey| {
            cache.pin_resident(k, resident("a(X, Y) :- p(X, Y)."))
        };
        assert_eq!(pin(&mut cache, &nnn), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(nnn.clone()));
        // `nnd` covers less than `nnn`, so it pins beside it and wins.
        assert_eq!(pin(&mut cache, &nnd), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(nnd.clone()));
        // Two `n` each: key order breaks the tie (`ndn` < `nnd`).
        assert_eq!(pin(&mut cache, &ndn), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(ndn));
        // Only a form itself covers the all-`n` form, and it is no cover.
        assert_eq!(cover(&mut cache, &nnn), None);
    }

    #[test]
    fn prepared_eviction_takes_the_resident_with_it() {
        let mut cache = PreparedCache::new(1);
        cache.set_resident_capacity(4);
        let (k1, p1) = prep("a(X, Y) :- p(X, Y).\n?- a(X, _).", "a", "nd");
        let (k2, p2) = prep("b(X, Y) :- q(X, Y).\n?- b(X, _).", "b", "nd");
        cache.insert(k1.clone(), p1);
        assert!(cache
            .pin_resident(&k1, resident("a(X, Y) :- p(X, Y)."))
            .is_some());
        cache.insert(k2, p2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_count(), 0, "evicted entry drops its state");
        assert!(cache.get_mut(&k1).is_none());
    }
}
