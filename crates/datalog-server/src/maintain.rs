//! Resident maintenance: every transition of a form's resident state
//! that is not a query's own decision.
//!
//! ```text
//!            pin_built (cold eval, first or again)
//!   Cold ───────────────────────────────────────▶ Live
//!    ▲                                              │
//!    └──────────── poison, or LRU eviction ─────────┘
//! ```
//!
//! * [`drain`](ServerState::drain) is the one catch-up: lock the form,
//!   propagate to a snapshot, optionally read the frontier and memoize it.
//!   Ingest drains every live form its rows touch before it answers, and a
//!   query drains its form to its own snapshot before it reads, so every
//!   answer is fresh.
//! * A failed propagation drops the form back to `Cold`, exactly as an
//!   eviction does. The next eligible query of the form evaluates it from
//!   cold and pins what it built: that is the rebuild, and it is counted as
//!   one. Nothing runs in the background.
//!
//! Lock order is cache → form; nothing here blocks on a form lock while
//! holding the cache lock.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use datalog_ast::{Atom, PredRef};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact};
use datalog_engine::{CancelToken, DbSnapshot};

use crate::cache::{FormKey, PreparedCache, Rendered, ResidentForm};
use crate::query::read_frontier;
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
        for (pred, start) in &form.applied {
            for row in snapshot.rows_from(pred, *start) {
                batch.push(DeltaFact::new(pred.clone(), row));
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
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

    /// Catch `form` up to `snapshot` holding only the form lock.
    ///
    /// With `read = (query atom, its rendered text)` the caught-up
    /// frontier is extracted while the form is still locked, then memoized
    /// under one short cache lock and returned. `Err(())` means the
    /// propagation failed: the form is poisoned, counted and `Cold`.
    ///
    /// The caller must not hold the cache lock.
    pub(crate) fn drain(
        &self,
        key: &FormKey,
        form: &Arc<Mutex<ResidentForm>>,
        snapshot: &DbSnapshot,
        read: Option<(&Atom, &str)>,
    ) -> Result<Option<Rendered>, ()> {
        let drained = {
            let mut g = lock(form);
            self.propagate(&mut g, snapshot).map(|()| {
                read.map(|(atom, repr)| (read_frontier(&g, atom), g.applied.clone(), repr))
            })
        };
        let Ok(read) = drained else {
            self.poison(key, form);
            return Err(());
        };
        let Some((table, applied, repr)) = read else {
            return Ok(None);
        };
        if let Some(e) = lock(&self.cache).peek_mut(key) {
            // Tagged with the form's *applied* watermarks: if a drain
            // raced us past `snapshot`, the served frontier is the newer
            // (monotone superset) one, and the slot must say so.
            e.memoize(repr, &table, applied);
        }
        Ok(Some(table))
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

    /// Make `key` live with `form` unless someone beat us to it (the
    /// caller holds the cache lock). A pin that replaces poisoned or
    /// evicted state is a rebuild.
    pub(crate) fn pin_built(
        &self,
        cache: &mut PreparedCache,
        key: &FormKey,
        form: ResidentForm,
        rebuild: bool,
    ) {
        if cache.pin_resident(key, form) && rebuild {
            self.metrics.resident_rebuilds.inc();
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
