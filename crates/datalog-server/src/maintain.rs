//! Resident maintenance: every transition of a form's
//! [`Residency`](crate::cache::Residency) that is not a query's own
//! decision.
//!
//! ```text
//!            pin_built                    poison
//!   Cold ───────────────▶ Live ─────────────────────────▶ Lost
//!    ▲   (cold eval or     │ ▲                              │
//!    │    rebuild)         │ │ drain: lag → None | Some     │
//!    │                     ▼ │                              │
//!    └──── LRU eviction ── Live{lag} ◀──── pin_built ───────┘
//!                                     (query, or rebuild at retry_at)
//! ```
//!
//! * [`drain`](ServerState::drain) is the one catch-up: lock the form,
//!   propagate to a snapshot, optionally read the frontier, then settle
//!   the entry in one cache-lock scope. Ingest (inline), the maintenance
//!   thread (deferred) and a `fresh` query all drain here.
//! * The ingest path only *marks* what it will not do itself
//!   (`Lag::deferred`), and a failed propagation only *records* when a
//!   rebuild is due (`Lost::retry_at`). The maintenance thread reads that
//!   state on a wake-up or its tick — there is no job queue, and backoff
//!   is a timestamp, never a sleep — so one form's backoff cannot delay
//!   another form's drain or the shutdown join. Without the thread (plain
//!   in-process states) the same state is resolved by the next eligible
//!   query.
//!
//! Lock order is cache → form; nothing here blocks on a form lock while
//! holding the cache lock.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datalog_ast::{Atom, PredRef};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact};
use datalog_engine::{CancelToken, DbSnapshot};
use datalog_opt::PreparedProgram;

use crate::cache::{FormKey, Lag, PreparedCache, Rendered, Residency, ResidentForm, Watermarks};
use crate::query::{build_resident, read_frontier};
use crate::server::{lock, ServerState};

/// Ceiling of the rebuild backoff.
const REBUILD_BACKOFF_CAP_MS: u64 = 5_000;

/// How often the maintenance thread looks at the cache unprompted.
const TICK: Duration = Duration::from_millis(50);

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
        // Fault hooks fire only on real propagation work: a slow drain
        // sleeps while holding the form lock (the widest window for
        // concurrent stale serves), a failing drain runs under an
        // already-cancelled token and poisons the state.
        let delay = self.cfg.fault.drain_delay_ms();
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
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

    /// Bound-polynomial drain-cost estimate: the static derivation bound
    /// evaluated at the snapshot's cardinalities minus the bound at the
    /// form's applied watermarks — an upper envelope on how much new
    /// derivation a catch-up can possibly do.
    pub(crate) fn drain_cost(
        prepared: &PreparedProgram,
        snapshot: &DbSnapshot,
        applied: &Watermarks,
    ) -> u64 {
        let now = Self::edb_cards(prepared, |p| snapshot.count(p));
        let then = Self::edb_cards(prepared, |p| applied.get(p).copied().unwrap_or(0));
        let bounds = &prepared.bounds;
        bounds
            .eval_total(&now)
            .saturating_sub(bounds.eval_total(&then))
    }

    /// Catch `form` up to `snapshot` (captured at `anchor`) holding only
    /// the form lock, then settle the entry under one short cache lock:
    /// merge the form's applied watermarks into `Residency::Live` (per-
    /// predicate max — a slower concurrent drain must not regress them)
    /// and re-anchor the lag. Rows still missing arrived after `anchor`,
    /// so it is a correct staleness anchor; an older one wins.
    ///
    /// With `read = (query atom, its rendered text)` the caught-up
    /// frontier is extracted while the form is still locked, memoized in
    /// that same cache-lock scope and returned. `Err(())` means the
    /// propagation failed: the form is poisoned, counted and `Lost`.
    ///
    /// The caller must not hold the cache lock.
    pub(crate) fn drain(
        &self,
        key: &FormKey,
        form: &Arc<Mutex<ResidentForm>>,
        snapshot: &DbSnapshot,
        anchor: Instant,
        read: Option<(&Atom, &str)>,
    ) -> Result<Option<Rendered>, ()> {
        let drained = {
            let mut g = lock(form);
            self.propagate(&mut g, snapshot).map(|()| {
                let table = read.map(|(atom, _)| read_frontier(&g, atom));
                (g.applied.clone(), table)
            })
        };
        let Ok((applied, table)) = drained else {
            self.poison(key, form);
            return Err(());
        };
        let now = self.db.snapshot();
        let mut cache = lock(&self.cache);
        let Some(e) = cache.peek_mut(key) else {
            return Ok(table);
        };
        match &mut e.residency {
            Residency::Live {
                form: pinned,
                applied: seen,
                lag,
            } if Arc::ptr_eq(pinned, form) => {
                for (p, n) in &applied {
                    let m = seen.entry(p.clone()).or_insert(0);
                    *m = (*m).max(*n);
                }
                let behind = now.lag_from(&e.prepared.support, seen) > 0;
                *lag = behind.then(|| Lag {
                    since: lag.map_or(anchor, |l| l.since.min(anchor)),
                    deferred: lag.is_some_and(|l| l.deferred),
                });
            }
            // Evicted or re-pinned while we drained the old handle.
            _ => {}
        }
        if let (Some((_, repr)), Some(table)) = (read, &table) {
            // Tagged with the form's *applied* watermarks: if a drain
            // raced us past `snapshot`, the served frontier is the newer
            // (monotone superset) one, and the slot must say so.
            e.memoize(repr, table, applied, anchor);
        }
        Ok(table)
    }

    /// `form` failed a propagation: `Live → Lost`, counted once however
    /// many readers find it poisoned, with the first rebuild due at once.
    pub(crate) fn poison(&self, key: &FormKey, form: &Arc<Mutex<ResidentForm>>) {
        {
            let mut cache = lock(&self.cache);
            match cache.peek_mut(key) {
                Some(e) if e.live_form().is_some_and(|f| Arc::ptr_eq(f, form)) => {
                    e.residency = Residency::Lost {
                        attempts: 1,
                        retry_at: Instant::now(),
                    };
                }
                _ => return,
            }
        }
        self.metrics.resident_poisonings.inc();
        self.note_limit(
            "poisoned",
            &format!(
                "resident form {} poisoned mid-propagation; rebuild due",
                key.pred
            ),
        );
        self.wake_maintenance();
    }

    /// Make `key` live with `form` unless someone beat us to it (the
    /// caller holds the cache lock). A pin that replaces lost or evicted
    /// state is a rebuild.
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

    /// Ingestion-side propagation, backpressure-aware: every live form
    /// whose support one of `touched` belongs to is either drained here
    /// (cheap by the bound polynomial) or marked deferred for the
    /// maintenance thread, while readers serve its published frontier.
    /// Runs off the ingest gate — the snapshot taken here necessarily
    /// includes the rows just inserted.
    pub(crate) fn drain_residents(&self, touched: &[PredRef]) {
        if self.cfg.resident_forms == 0 || touched.is_empty() {
            return;
        }
        let t_snap = Instant::now();
        let snapshot = self.db.snapshot();
        let mut inline: Vec<(FormKey, Arc<Mutex<ResidentForm>>)> = Vec::new();
        let mut deferred = false;
        {
            let mut cache = lock(&self.cache);
            for (key, entry) in cache.iter_mut() {
                let Residency::Live { form, applied, lag } = &mut entry.residency else {
                    continue;
                };
                if !touched.iter().any(|p| entry.prepared.depends_on(p))
                    || snapshot.lag_from(&entry.prepared.support, applied) == 0
                {
                    continue;
                }
                // Rows past `applied` arrived no earlier than the previous
                // drain's snapshot; an anchor already set is older and wins.
                let lag = lag.get_or_insert(Lag {
                    since: t_snap,
                    deferred: false,
                });
                if Self::drain_cost(&entry.prepared, &snapshot, applied) <= self.cfg.drain_sync_cost
                {
                    inline.push((key.clone(), Arc::clone(form)));
                } else {
                    lag.deferred = true;
                    deferred = true;
                }
            }
        }
        for (key, form) in &inline {
            let _ = self.drain(key, form, &snapshot, t_snap, None);
        }
        if deferred {
            self.wake_maintenance();
        }
    }

    /// Spawn the background maintenance thread (deferred drains, due
    /// rebuilds). Called by [`Server::spawn`](crate::Server::spawn);
    /// in-process harnesses may call it too. No-op (returns `None`) when
    /// resident serving is disabled or the thread already runs.
    pub fn start_maintenance(self: &Arc<Self>) -> Option<JoinHandle<()>> {
        if self.cfg.resident_forms == 0 || self.maintenance.get().is_some() {
            return None;
        }
        let state = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            while !state.is_shutdown() {
                state.maintain();
                std::thread::park_timeout(TICK);
            }
        });
        // A wake-up sent before this lands is covered by the first tick.
        let _ = self.maintenance.set(handle.thread().clone());
        Some(handle)
    }

    /// Nudge the maintenance thread to look at the cache now.
    pub(crate) fn wake_maintenance(&self) {
        if let Some(thread) = self.maintenance.get() {
            thread.unpark();
        }
    }

    /// One maintenance pass: drain every live form whose lag is marked
    /// deferred, rebuild every lost form whose backoff has run out.
    fn maintain(&self) {
        let now = Instant::now();
        let mut drains: Vec<(FormKey, Arc<Mutex<ResidentForm>>)> = Vec::new();
        let mut rebuilds: Vec<(FormKey, Arc<PreparedProgram>)> = Vec::new();
        for (key, entry) in lock(&self.cache).iter_mut() {
            match &mut entry.residency {
                Residency::Live {
                    form,
                    lag: Some(lag),
                    ..
                } if lag.deferred => {
                    // Claimed before the drain: an ingest arriving
                    // mid-drain marks it again, and the next pass follows up.
                    lag.deferred = false;
                    drains.push((key.clone(), Arc::clone(form)));
                }
                Residency::Lost { retry_at, .. } if *retry_at <= now => {
                    rebuilds.push((key.clone(), Arc::clone(&entry.prepared)));
                }
                _ => {}
            }
        }
        for (key, form) in &drains {
            // Catch up to the *current* database, not the snapshot that
            // deferred the drain — later ingests fold in for free.
            let t_snap = Instant::now();
            let snapshot = self.db.snapshot();
            if self.drain(key, form, &snapshot, t_snap, None).is_ok() {
                self.metrics.background_drains.inc();
                // The maintenance thread owns the slack after a deferred
                // drain: seal the resident's freshly-applied tail into
                // bloom-gated sorted runs (and consolidate) off the query
                // path. Skipped under contention — the next seal point
                // (freeze barrier or threshold) picks it up.
                if let Ok(mut g) = form.try_lock() {
                    g.eval.seal_storage();
                }
                self.db.seal_storage();
            }
        }
        for (key, prepared) in &rebuilds {
            if self.is_shutdown() {
                return;
            }
            self.rebuild(key, prepared);
        }
    }

    /// One background rebuild attempt of a lost form from a fresh
    /// snapshot. Failure is counted as a poisoning and doubles the form's
    /// backoff (`rebuild_ms << attempts`, capped); the wait is `retry_at`
    /// in the entry, so nothing else waits with it.
    fn rebuild(&self, key: &FormKey, prepared: &PreparedProgram) {
        let started = Instant::now();
        let snapshot = self.db.snapshot();
        // The failing-drain fault also covers rebuilds: an armed plan
        // fails the construction, exercising the repeatedly-poisoned
        // backoff path end to end.
        let built = if self.cfg.fault.drain_should_fail() {
            None
        } else {
            let (_, cost_hints) = Self::live_bound(prepared, &snapshot);
            build_resident(prepared, &snapshot, &self.eval_opts(started, cost_hints)).ok()
        };
        let mut cache = lock(&self.cache);
        match built {
            Some(form) => self.pin_built(&mut cache, key, form, true),
            None => {
                self.metrics.resident_poisonings.inc();
                // Still lost, unless a query re-pinned it meanwhile.
                if let Some(Residency::Lost { attempts, retry_at }) =
                    cache.peek_mut(key).map(|e| &mut e.residency)
                {
                    let wait =
                        (self.cfg.rebuild_ms << (*attempts).min(16)).min(REBUILD_BACKOFF_CAP_MS);
                    *attempts += 1;
                    *retry_at = Instant::now() + Duration::from_millis(wait);
                }
            }
        }
    }
}
