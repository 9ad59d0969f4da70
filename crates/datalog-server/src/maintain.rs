//! Resident maintenance: every transition of a form's resident state
//! that is not a query's own decision.
//!
//! ```text
//!            pin_built (cold eval, first or again)
//!   Cold ───────────────────────────────────────▶ Live
//!    ▲                                              │
//!    └─── poison, LRU eviction, or retired by a ─────┘
//!         form that answers it
//! ```
//!
//! * [`drain`](ServerState::drain) is the one catch-up: lock the form
//!   exclusively to propagate to a snapshot, then, shared, optionally
//!   answer a query off it. Ingest drains every live form its rows touch
//!   before it answers, and a query drains its form to its own snapshot
//!   before it reads, so every answer is fresh. A query whose own form is
//!   cold but answered by another live form (one that holds it, or is or
//!   holds a form covering it) drains that form: the live form is what a
//!   failure poisons, the query's own form is which of its read slots the
//!   read fills.
//! * A propagation that loads rows clears every read slot of the form
//!   (counted as `invalidations`), so a slot only ever holds what a read
//!   of the current frontier renders. Dropping the form drops its slots;
//!   a form that retires others — on [`pin_built`](ServerState::pin_built),
//!   or when it first answers a form it holds — reads their slots' query
//!   texts again off its own frontier ([`adopt`](ServerState::adopt)).
//! * A failed propagation drops the form back to `Cold`, exactly as an
//!   eviction does. The next eligible query of the form evaluates it from
//!   cold and pins what it built: that is the rebuild, and it is counted as
//!   one. Nothing runs in the background.
//!
//! Lock order is cache → form; nothing here blocks on a form lock while
//! holding the cache lock.

use std::sync::{Arc, PoisonError};
use std::time::Instant;

use datalog_ast::{parse_atom, Atom, PredRef};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact};
use datalog_engine::{CancelToken, DbSnapshot};

use crate::cache::{FormKey, Live, Rendered, ResidentForm};
use crate::server::{lock, read_lock, write_lock, ServerState};

impl ServerState {
    /// Propagate every shared-store row past the form's applied watermarks
    /// (per support predicate, rows `[applied[p], watermark(p))`) through
    /// the retained semi-naive state. Idempotent (the resident dedups) and
    /// gap-free (the shared store is append-only), so concurrent drains
    /// race benignly. `Err(())` means the evaluation is poisoned.
    fn propagate(&self, form: &mut ResidentForm, snapshot: &DbSnapshot) -> Result<(), ()> {
        if form.eval.poisoned() {
            return Err(());
        }
        let mut batch: Vec<DeltaFact> = Vec::new();
        // Only a relation with rows past `applied` is read (and locked): a
        // caught-up form's read takes no relation lock at all.
        for (pred, start) in form.applied.iter().filter(|(p, n)| snapshot.count(p) > **n) {
            for row in snapshot.rows_from(pred, *start) {
                batch.push(DeltaFact::new(pred.clone(), row));
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        let reads = form.reads.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.metrics.invalidations.add(reads.len() as u64);
        reads.clear();
        // The fault hook fires only on real propagation work: a failing
        // drain runs under an already-cancelled token and poisons the state.
        let abort = CancelToken::new();
        if self.cfg.fault.drain_should_fail() {
            abort.cancel();
        }
        let t0 = Instant::now();
        // No deadline: a propagation either completes or poisons the
        // frontier, so the only limits worth carrying are the shutdown
        // drain and the injected abort.
        let limits = DeltaLimits {
            deadline: None,
            cancel: Some(self.cancel.joined(&abort)),
        };
        let report = form.eval.apply_deltas(&batch, &limits).map_err(drop)?;
        for (pred, n) in &mut form.applied {
            *n = snapshot.count(pred);
        }
        self.metrics
            .incremental_applied_facts
            .add(report.new_facts as u64);
        self.metrics
            .incremental_seconds
            .record_duration(t0.elapsed());
        Ok(())
    }

    /// Catch `form` (live under `key`) up to `snapshot`, holding only the
    /// form's lock: exclusively while rows are propagated, shared while a
    /// caught-up form is read, so reads of one form run side by side.
    ///
    /// With `read = (query form, query atom, its rendered text)` the
    /// caught-up form answers the query before the lock drops: from the
    /// query form's read slot when it holds the same text (`"answers"`),
    /// else by a fresh read of the frontier (`"resident"`), which then
    /// fills the slot. The query form is `key` unless `form` answers it for
    /// another form. `Err(())` means the propagation failed: `key`'s form is
    /// poisoned, counted and `Cold`.
    ///
    /// The caller must not hold the cache lock.
    pub(crate) fn drain(
        &self,
        key: &FormKey,
        form: &Live,
        snapshot: &DbSnapshot,
        read: Option<(&FormKey, &Atom, &str)>,
    ) -> Result<Option<(&'static str, Rendered)>, ()> {
        let behind = |f: &ResidentForm| {
            f.eval.poisoned() || f.applied.iter().any(|(p, n)| snapshot.count(p) > *n)
        };
        let g = loop {
            let g = read_lock(form);
            if !behind(&g) {
                break g;
            }
            drop(g);
            if self.propagate(&mut write_lock(form), snapshot).is_err() {
                self.poison(key, form);
                return Err(());
            }
        };
        let Some((query_form, atom, text)) = read else {
            return Ok(None);
        };
        let kept = lock(&g.reads)
            .get(query_form)
            .filter(|(kept, _)| kept == text)
            .map(|(_, table)| table.clone());
        if let Some(table) = kept {
            return Ok(Some(("answers", table)));
        }
        let table = Rendered::of(&g.eval.answers(atom));
        let slot = (text.to_string(), table.clone());
        lock(&g.reads).insert(query_form.clone(), slot);
        Ok(Some(("resident", table)))
    }

    /// `form` failed a propagation: `Live → Cold`, counted once however
    /// many readers find it poisoned. The next eligible query rebuilds it.
    pub(crate) fn poison(&self, key: &FormKey, form: &Live) {
        if lock(&self.cache).unpin(key, Some(form)).is_none() {
            return;
        }
        self.metrics.resident_poisonings.inc();
        self.note_limit(
            "poisoned",
            &format!(
                "resident form {} poisoned mid-propagation; the next query rebuilds it",
                key.pred
            ),
        );
    }

    /// Make `key` live with `form` unless someone beat us to it, retiring
    /// the live forms it answers, whose kept texts it then reads again
    /// ([`adopt`](ServerState::adopt)). A pin that replaces poisoned or
    /// evicted state is a rebuild. The caller holds no lock.
    pub(crate) fn pin_built(&self, key: &FormKey, form: ResidentForm, rebuild: bool) {
        let Some((live, retired)) = lock(&self.cache).pin_resident(key, form) else {
            return;
        };
        if rebuild {
            self.metrics.resident_rebuilds.inc();
        }
        self.adopt(&live, retired);
    }

    /// `live` took over from the `retired` forms: each query text one of
    /// them kept is read again off `live`'s frontier, so its repeat stays
    /// `answers` (a text that does not print back as itself, or that
    /// another live form now answers, waits for its next query). Where a
    /// text reads is resolved under the cache lock, the reads run under
    /// `live`'s lock after it drops.
    pub(crate) fn adopt(&self, live: &Live, retired: Vec<Live>) {
        if retired.is_empty() {
            return;
        }
        self.metrics.covered_retired.add(retired.len() as u64);
        let texts: Vec<(FormKey, String)> = (retired.into_iter())
            .flat_map(|f| std::mem::take(&mut *lock(&write_lock(&f).reads)))
            .map(|(query_form, (text, _))| (query_form, text))
            .collect();
        let reads: Vec<(FormKey, String, Atom)> = {
            let mut cache = lock(&self.cache);
            (texts.into_iter())
                .filter_map(|(query_form, text)| {
                    let atom = parse_atom(&text).ok().filter(|a| a.to_string() == text)?;
                    let source = cache.live_source(&query_form, atom.pred.adornment.is_none())?;
                    let atom = Arc::ptr_eq(&source.form, live)
                        .then(|| source.splice.instantiate_atom(&atom))??;
                    Some((query_form, text, atom))
                })
                .collect()
        };
        let g = read_lock(live);
        for (query_form, text, atom) in reads {
            let table = Rendered::of(&g.eval.answers(&atom));
            lock(&g.reads).entry(query_form).or_insert((text, table));
        }
    }

    /// Ingestion-side propagation: drain every live form whose support one
    /// of `touched` belongs to, before the ingest is acknowledged. Runs off
    /// the ingest gate — the snapshot taken here necessarily includes the
    /// rows just inserted.
    pub(crate) fn drain_residents(&self, touched: &[PredRef]) {
        if self.cfg.resident_forms == 0 || touched.is_empty() {
            return;
        }
        let snapshot = self.db.snapshot();
        let forms: Vec<(FormKey, Live)> = lock(&self.cache)
            .iter()
            .filter(|(_, e)| touched.iter().any(|p| e.prepared.depends_on(p)))
            .filter_map(|(key, e)| Some((key.clone(), Arc::clone(e.resident()?))))
            .collect();
        for (key, form) in &forms {
            let _ = self.drain(key, form, &snapshot, None);
        }
    }
}
