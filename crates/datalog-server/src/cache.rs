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
//! Whether the form is maintained incrementally is its
//! [`Entry::resident`]: `None` (cold: evaluate from the snapshot on every
//! query) or a pinned [`ResidentForm`] that ingestion propagates deltas
//! through (live). A live form keeps its last rendered read of each form
//! it answers ([`ResidentForm::reads`]); a propagation that loads rows
//! clears them all, so a kept read is always what a fresh read of the
//! current frontier would render, and a repeat of its query text is
//! answered from it (`cache=answers`).
//! Resident state is memory-heavy (a full saturated database per form), so
//! live entries have their own, separately bounded LRU
//! (`--resident-forms=N`; 0 disables pinning).
//!
//! A live form answers every form it [holds](PreparedProgram::holds) —
//! whose answer relation its program derives by the same rules, itself
//! included — and every form a held form [covers](FormKey::covers)
//! (Lemma 3.2). One keyed lookup, from closure fingerprint to live form,
//! is kept on every pin, retirement, eviction and poisoning;
//! [`PreparedCache::live_source`] reads it, and
//! [`PreparedCache::pin_resident`] retires the live forms a newly pinned
//! one answers: one resident per defining closure.
//!
//! The form sits behind its own read-write lock, so a drain propagates
//! without the cache lock (exclusively) and the reads of every form it
//! answers run side by side (shared). Lock order is cache → form, and the
//! cache lock is never held while *blocking* on a form lock: the cache only
//! hands the form handle out, and everything about the form is read under
//! its own lock.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, RwLock};

use datalog_ast::PredRef;
use datalog_engine::incremental::ResidentEval;
use datalog_engine::AnswerSet;
use datalog_opt::PreparedProgram;

use crate::protocol::count_lines;
use crate::server::render_answers;

/// Prepared forms the server keeps before LRU eviction. Prepared programs
/// are small and depend only on the rules, so one generous bound serves
/// every deployment; resident state has its own bound
/// (`--resident-forms`).
pub const PREPARED_CAPACITY: usize = 256;

/// Cache key: the query form.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
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

/// Committed row count per predicate of a form's EDB support set: how far
/// a resident form has been advanced.
pub type Watermarks = BTreeMap<PredRef, usize>;

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
    /// The last read of each form this one answers (its own and every form
    /// it holds or covers), keyed by that form: the query text and the
    /// table rendered for it off this form's frontier. Cleared by every
    /// propagation that loads rows, so a kept table is always the current
    /// frontier's. Behind its own lock, so readers that share the form
    /// fill it.
    pub reads: Mutex<BTreeMap<FormKey, (String, Rendered)>>,
}

/// A live form, shared so drains can propagate without the cache lock:
/// written by a propagation, read by any number of queries at once.
pub type Live = Arc<RwLock<ResidentForm>>;

/// One cache entry: the prepared program plus reuse bookkeeping.
#[derive(Debug)]
pub struct Entry {
    /// The optimizer's output for this form. Shared, so a query stage can
    /// keep reading it after the cache lock drops.
    pub prepared: Arc<PreparedProgram>,
    resident: Option<Live>,
    pinnable: bool,
    /// LRU clock value of the last use.
    last_used: u64,
}

impl Entry {
    /// Whether the form may hold resident state: it is stratifiable
    /// ([`ResidentEval::supports`]: negation is kept resident too) and its
    /// bound class is admitted. Decided once, when
    /// [`PreparedCache::insert`] creates the entry; first pin and rebuild
    /// both ask here.
    pub fn pinnable(&self) -> bool {
        self.pinnable
    }

    /// The pinned resident state. `None` when the form was never pinned,
    /// is not eligible, or was evicted, retired or poisoned; an eligible
    /// form pins with its next cold evaluation.
    pub fn resident(&self) -> Option<&Live> {
        self.resident.as_ref()
    }
}

/// The live form that answers a query form ([`PreparedCache::live_source`]).
pub struct LiveSource {
    pub key: FormKey,
    pub form: Live,
    /// The program the read is spliced into: the query form's own, or
    /// that of a form covering it. `key` holds it.
    pub splice: Arc<PreparedProgram>,
}

/// The prepared-query cache: bounded, LRU-evicted.
#[derive(Debug)]
pub struct PreparedCache {
    entries: BTreeMap<FormKey, Entry>,
    /// `(closure fingerprint, live form)` for every closure of every live
    /// form's program.
    held: BTreeSet<(u64, FormKey)>,
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
            held: BTreeSet::new(),
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
        if let Some(victim) = (self.entries.iter())
            .filter(|(k, e)| e.resident.is_some() && Some(*k) != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            self.unpin(&victim, None);
        }
    }

    /// Take `key`'s resident state — only if it is `form`, when given (a
    /// poisoned form may have been replaced already) — and take its
    /// closures out of the lookup.
    pub fn unpin(&mut self, key: &FormKey, form: Option<&Live>) -> Option<Live> {
        let e = self.entries.get_mut(key)?;
        let current = e.resident.as_ref()?;
        if form.is_some_and(|f| !Arc::ptr_eq(f, current)) {
            return None;
        }
        for &fp in e.prepared.closures.values() {
            self.held.remove(&(fp, key.clone()));
        }
        e.resident.take()
    }

    /// Retire every live form but `keep` that one of `by` covers.
    pub fn retire(&mut self, by: &[FormKey], keep: &FormKey) -> Vec<Live> {
        let victims: Vec<FormKey> = (self.entries.iter())
            .filter(|(k, e)| e.resident.is_some() && *k != keep && by.iter().any(|c| c.covers(k)))
            .map(|(k, _)| k.clone())
            .collect();
        victims.iter().filter_map(|k| self.unpin(k, None)).collect()
    }

    /// Make an entry live with freshly built state, retiring first every
    /// other live form it now answers — each form it holds, and each form
    /// one of those covers — then evicting the least recently used other
    /// resident if the bound is still reached. Returns the live handle and
    /// the retired residents, or `None` (dropping `form`) when pinning is
    /// disabled, the entry is gone, or a live form answers it already (a
    /// concurrent builder won) — all fine: the request that built `form`
    /// has its answers either way.
    pub fn pin_resident(&mut self, key: &FormKey, form: ResidentForm) -> Option<(Live, Vec<Live>)> {
        let prepared = Arc::clone(&self.entries.get(key)?.prepared);
        if self.resident_capacity == 0 || self.live_source(key, false).is_some() {
            return None;
        }
        let held: Vec<FormKey> = (self.entries.iter())
            .filter(|(k, e)| *k == key || prepared.holds(&e.prepared))
            .map(|(k, _)| k.clone())
            .collect();
        let retired = self.retire(&held, key);
        while self.resident_count() >= self.resident_capacity {
            self.evict_one_resident(Some(key));
        }
        let live = Arc::new(RwLock::new(form));
        self.entries.get_mut(key)?.resident = Some(Arc::clone(&live));
        (self.held).extend(prepared.closures.values().map(|&fp| (fp, key.clone())));
        Some((live, retired))
    }

    /// The live form that answers `q`: `q`'s own, else one that holds `q`,
    /// else — when `covered` (a query whose `d` positions are all
    /// wildcards) — the one that is or holds a form covering `q`, covers
    /// with the fewest `n` positions (the least to read past) first, ties
    /// in key order. Bumps that form's LRU clock: a read through it is a
    /// use of it.
    pub fn live_source(&mut self, q: &FormKey, covered: bool) -> Option<LiveSource> {
        // The live form that is or holds `via`, and `via`'s program.
        let answering = |via: &FormKey, e: &Entry| {
            let live = match e.resident {
                Some(_) => via,
                None => {
                    let fp = e.prepared.query_closure()?;
                    let (held, key) = self.held.range((fp, FormKey::default())..).next()?;
                    (*held == fp).then_some(key)?
                }
            };
            Some((live.clone(), Arc::clone(&e.prepared)))
        };
        let own = self.entries.get_key_value(q);
        let found = own.and_then(|(k, e)| answering(k, e)).or_else(|| {
            if !covered {
                return None;
            }
            let first = FormKey {
                adornment: String::new(),
                ..q.clone()
            };
            let needed = |k: &FormKey| k.adornment.bytes().filter(|&b| b == b'n').count();
            (self.entries.range(first..))
                .take_while(|(k, _)| k.fingerprint == q.fingerprint && k.pred == q.pred)
                .filter(|(k, _)| *k != q && k.covers(q))
                .filter_map(|(k, e)| Some((needed(k), answering(k, e)?)))
                .min_by_key(|(n, _)| *n)
                .map(|(_, found)| found)
        });
        let (key, splice) = found?;
        self.clock += 1;
        let e = self.entries.get_mut(&key)?;
        e.last_used = self.clock;
        let form = Arc::clone(e.resident.as_ref()?);
        Some(LiveSource { key, form, splice })
    }

    /// Iterate every entry (key + mutable entry), without touching LRU
    /// clocks — ingestion and `STATS` walk residents through this.
    pub fn iter(&self) -> impl Iterator<Item = (&FormKey, &Entry)> {
        self.entries.iter()
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
    /// bookkeeping must not make a form look recently used.
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
                self.unpin(&victim, None);
                self.entries.remove(&victim);
            }
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.entry(key).or_insert_with(|| Entry {
            pinnable: ResidentEval::supports(&prepared.program)
                && ResidentEval::admits_bound_class(prepared.bound_class),
            prepared: Arc::new(prepared),
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
            reads: Mutex::default(),
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
    fn cache_of(src: &str, keys: &[&FormKey]) -> PreparedCache {
        let mut cache = PreparedCache::new(16);
        cache.set_resident_capacity(8);
        for k in keys {
            cache.insert((*k).clone(), prep(src, &k.pred, &k.adornment).1);
        }
        cache
    }

    const FLAT: &str = "a(X, Y) :- p(X, Y).\nb(X, Y) :- q(X, Y).\nt(X, Y, Z) :- p(X, Y), q(Y, Z).";

    fn live(cache: &mut PreparedCache, k: &FormKey) -> bool {
        cache.peek_mut(k).unwrap().resident.is_some()
    }

    /// Pin a stand-in resident under `k`: how many forms it retired.
    fn pin(cache: &mut PreparedCache, k: &FormKey) -> Option<usize> {
        let form = resident("a(X, Y) :- p(X, Y).");
        cache
            .pin_resident(k, form)
            .map(|(_, retired)| retired.len())
    }

    #[test]
    fn pinning_a_covering_form_retires_the_live_forms_it_covers() {
        let (nn, nd, dd, b) = (
            key(1, "a", "nn"),
            key(1, "a", "nd"),
            key(1, "a", "dd"),
            key(1, "b", "nd"),
        );
        let mut cache = cache_of(FLAT, &[&nn, &nd, &dd, &b]);
        for k in [&nd, &dd, &b] {
            assert_eq!(pin(&mut cache, k), Some(0));
        }
        assert_eq!(pin(&mut cache, &nn), Some(2));
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
        let mut cache = cache_of(FLAT, &[&nnn, &nnd, &ndn, &ndd]);
        let cover =
            |cache: &mut PreparedCache, q: &FormKey| cache.live_source(q, true).map(|s| s.key);
        assert_eq!(cover(&mut cache, &ndd), None, "nothing live");
        assert_eq!(pin(&mut cache, &nnn), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(nnn.clone()));
        // `nnd` covers less than `nnn`, so it pins beside it and wins.
        assert_eq!(pin(&mut cache, &nnd), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(nnd.clone()));
        // Two `n` each: key order breaks the tie (`ndn` < `nnd`).
        assert_eq!(pin(&mut cache, &ndn), Some(0));
        assert_eq!(cover(&mut cache, &ndd), Some(ndn));
        // A live form answers itself before any cover.
        assert_eq!(cover(&mut cache, &nnn), Some(nnn));
    }

    /// The org schema's rules: `clean[n]`'s program contains `flagged[n]`'s,
    /// which contains `above[nn]`'s.
    const ORG: &str = "above(X, Y) :- mgr(X, Y).\nabove(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                       flagged(X) :- above(X, Y), audit(Y).\n\
                       clean(X) :- emp(X), not flagged(X).\nclean(X) :- flagged(X), cleared(X).";

    #[test]
    fn a_live_form_answers_the_forms_it_holds_and_retires_them_on_pin() {
        let [nn, nd, flagged, clean] = [
            ("above", "nn"),
            ("above", "nd"),
            ("flagged", "n"),
            ("clean", "n"),
        ]
        .map(|(p, ad)| key(1, p, ad));
        let mut cache = cache_of(ORG, &[&nn, &nd, &flagged, &clean]);
        let source = |cache: &mut PreparedCache, q: &FormKey, covered| {
            cache
                .live_source(q, covered)
                .map(|s| (s.key.pred, s.splice.adornment.to_string()))
        };
        let held_by = |p: &str, via: &str| Some((p.to_string(), via.to_string()));
        assert_eq!(pin(&mut cache, &nd), Some(0));
        // `flagged[n]` holds `above[nn]`, which covers the live `above[nd]`.
        assert_eq!(pin(&mut cache, &flagged), Some(1));
        assert_eq!(source(&mut cache, &nn, false), held_by("flagged", "nn"));
        assert_eq!(source(&mut cache, &nd, true), held_by("flagged", "nn"));
        assert_eq!(source(&mut cache, &nd, false), None, "an adorned text");
        // `clean[n]` holds `flagged[n]`: one resident answers all four, and
        // a held form does not pin beside it.
        assert_eq!(pin(&mut cache, &clean), Some(1));
        assert_eq!(cache.resident_count(), 1);
        assert_eq!(source(&mut cache, &nd, true), held_by("clean", "nn"));
        assert_eq!(pin(&mut cache, &nn), None);
        // Poisoning the holder takes its closures out of the lookup.
        let form = cache.peek_mut(&clean).unwrap().resident().cloned();
        assert!(cache.unpin(&clean, form.as_ref()).is_some());
        assert!(cache.unpin(&clean, form.as_ref()).is_none(), "once");
        assert_eq!(source(&mut cache, &nn, true), None);
        assert_eq!(pin(&mut cache, &flagged), Some(0));
        assert_eq!(source(&mut cache, &nn, false), held_by("flagged", "nn"));
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
