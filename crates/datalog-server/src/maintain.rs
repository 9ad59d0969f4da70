//! Resident maintenance: every transition of a form's resident state
//! that is not a query's own decision.
//!
//! ```text
//!            pin_built (cold eval, first or again)
//!   Cold ───────────────────────────────────────▶ Live
//!    ▲                                              │
//!    └─── poison, LRU eviction, or a covering ──────┘
//!         form pinned (retired)
//! ```
//!
//! * [`drain`](ServerState::drain) is the one catch-up: lock the form,
//!   propagate to a snapshot, optionally answer a query off it. Ingest
//!   drains every live form its rows touch before it answers, and a query
//!   drains its form to its own snapshot before it reads, so every answer
//!   is fresh. A query whose own form is cold but covered by a live form
//!   drains the covering form: the covering form is what a failure
//!   poisons, the query's own form is which of its read slots the read
//!   fills.
//! * A propagation that loads rows clears every read slot of the form
//!   (counted as `invalidations`), so a slot only ever holds what a read
//!   of the current frontier renders. Dropping the form drops its slots;
//!   a form that retires others on [`pin_built`](ServerState::pin_built)
//!   reads their slots' query texts again off its own frontier.
//! * A failed propagation drops the form back to `Cold`, exactly as an
//!   eviction does. The next eligible query of the form evaluates it from
//!   cold and pins what it built: that is the rebuild, and it is counted as
//!   one. Nothing runs in the background.
//!
//! Lock order is cache → form; nothing here blocks on a form lock while
//! holding the cache lock.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use datalog_ast::{parse_atom, Atom, PredRef};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact};
use datalog_engine::{CancelToken, DbSnapshot};
use datalog_opt::PreparedProgram;

use crate::cache::{FormKey, Rendered, ResidentForm};
use crate::server::{lock, ServerState};

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
        self.metrics.invalidations.add(form.reads.len() as u64);
        form.reads.clear();
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

    /// Catch `form` (live under `key`) up to `snapshot` holding only the
    /// form lock.
    ///
    /// With `read = (query form, query atom, its rendered text)` the
    /// caught-up form answers the query before the lock drops: from the
    /// query form's read slot when it holds the same text (`"answers"`),
    /// else by a fresh read of the frontier (`"resident"`), which then
    /// fills the slot. The query form is `key` unless `form` covers it.
    /// `Err(())` means the propagation failed: `key`'s form is poisoned,
    /// counted and `Cold`.
    ///
    /// The caller must not hold the cache lock.
    pub(crate) fn drain(
        &self,
        key: &FormKey,
        form: &Arc<Mutex<ResidentForm>>,
        snapshot: &DbSnapshot,
        read: Option<(&FormKey, &Atom, &str)>,
    ) -> Result<Option<(&'static str, Rendered)>, ()> {
        let mut g = lock(form);
        if self.propagate(&mut g, snapshot).is_err() {
            drop(g);
            self.poison(key, form);
            return Err(());
        }
        let Some((query_form, atom, text)) = read else {
            return Ok(None);
        };
        if let Some((_, table)) = g.reads.get(query_form).filter(|(kept, _)| kept == text) {
            return Ok(Some(("answers", table.clone())));
        }
        let table = Rendered::of(&g.eval.answers(atom));
        let slot = (text.to_string(), table.clone());
        g.reads.insert(query_form.clone(), slot);
        Ok(Some(("resident", table)))
    }

    /// `form` failed a propagation: `Live → Cold`, counted once however
    /// many readers find it poisoned. The next eligible query rebuilds it.
    pub(crate) fn poison(&self, key: &FormKey, form: &Arc<Mutex<ResidentForm>>) {
        {
            let mut cache = lock(&self.cache);
            match cache.peek_mut(key) {
                Some(e) if e.resident.as_ref().is_some_and(|f| Arc::ptr_eq(f, form)) => {
                    e.resident = None;
                }
                _ => return,
            }
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

    /// Make `key` live with `form` unless someone beat us to it,
    /// retiring the live forms it covers. Once the retired forms are gone,
    /// each query text one of them kept is read again off the live form's
    /// frontier, so its repeat stays `answers` (a text that does not print
    /// back as itself waits for its next query). A pin that replaces
    /// poisoned or evicted state is a rebuild. The caller holds no lock.
    pub(crate) fn pin_built(
        &self,
        key: &FormKey,
        prepared: &PreparedProgram,
        form: ResidentForm,
        rebuild: bool,
    ) {
        let (live, retired) = {
            let mut cache = lock(&self.cache);
            let Some(retired) = cache.pin_resident(key, form) else {
                return;
            };
            (
                cache.peek_mut(key).and_then(|e| e.resident.clone()),
                retired,
            )
        };
        self.metrics.covered_retired.add(retired.len() as u64);
        if rebuild {
            self.metrics.resident_rebuilds.inc();
        }
        let texts: Vec<(FormKey, String)> = (retired.into_iter())
            .flat_map(|f| std::mem::take(&mut lock(&f).reads))
            .map(|(query_form, (text, _))| (query_form, text))
            .collect();
        let Some(live) = live else {
            return;
        };
        let mut g = lock(&live);
        for (query_form, text) in texts {
            let atom = parse_atom(&text).ok().filter(|a| a.to_string() == text);
            if let Some(atom) = atom.and_then(|a| prepared.instantiate_atom(&a)) {
                let table = Rendered::of(&g.eval.answers(&atom));
                g.reads.entry(query_form).or_insert((text, table));
            }
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
        let forms: Vec<(FormKey, Arc<Mutex<ResidentForm>>)> = lock(&self.cache)
            .iter_mut()
            .filter(|(_, e)| touched.iter().any(|p| e.prepared.depends_on(p)))
            .filter_map(|(key, e)| Some((key.clone(), Arc::clone(e.resident.as_ref()?))))
            .collect();
        for (key, form) in &forms {
            let _ = self.drain(key, form, &snapshot, None);
        }
    }
}
