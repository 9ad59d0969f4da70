//! Resident maintenance: every transition of a form's
//! [`Residency`](crate::cache::Residency) that is not a query's own
//! decision.
//!
//! ```text
//!            pin_built                 poison
//!   Cold ───────────────▶ Live ───────────────────▶ Lost
//!    ▲   (cold eval or     │ ▲                       │
//!    │    rebuild)         │ └────── pin_built ──────┘
//!    └── LRU eviction ─────┘  (query, or rebuild at retry_at)
//! ```
//!
//! * [`drain`](ServerState::drain) is the one catch-up: lock the form,
//!   propagate to a snapshot, optionally read the frontier and memoize it.
//!   Ingest drains every live form its rows touch before it answers, and a
//!   query drains its form to its own snapshot before it reads, so every
//!   answer is fresh.
//! * A failed propagation only *records* when a rebuild is due
//!   (`Lost::retry_at`). The maintenance thread reads that state on a
//!   wake-up or its tick — there is no job queue, and backoff is a
//!   timestamp, never a sleep — so one form's backoff cannot delay another
//!   form or the shutdown join. Without the thread (plain in-process
//!   states) a lost form is rebuilt by the next eligible query.
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

use crate::cache::{FormKey, PreparedCache, Rendered, Residency, ResidentForm};
use crate::query::{build_resident, read_frontier};
use crate::server::{lock, ServerState};

/// Ceiling of the rebuild backoff, and of its base delay (`rebuild_ms`).
pub(crate) const REBUILD_BACKOFF_CAP_MS: u64 = 5_000;

/// How often the maintenance thread looks at the cache unprompted.
const TICK: Duration = Duration::from_millis(50);

/// The wait before the next rebuild of a form whose last `attempts`
/// rebuilds failed: `rebuild_ms << attempts`, capped. `rebuild_ms` is at
/// most the cap (see [`ServerState::from_config`]), so the shift cannot
/// overflow.
fn rebuild_backoff_ms(rebuild_ms: u64, attempts: u32) -> u64 {
    (rebuild_ms << attempts.min(16)).min(REBUILD_BACKOFF_CAP_MS)
}

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
    /// propagation failed: the form is poisoned, counted and `Lost`.
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
            .filter_map(|(key, e)| Some((key.clone(), Arc::clone(e.live_form()?))))
            .collect();
        for (key, form) in &forms {
            let _ = self.drain(key, form, &snapshot, None);
        }
    }

    /// Spawn the background maintenance thread (due rebuilds). Called by
    /// [`Server::spawn`](crate::Server::spawn); in-process harnesses may
    /// call it too. No-op (returns `None`) when resident serving is
    /// disabled or the thread already runs.
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

    /// One maintenance pass: rebuild every lost form whose backoff has run
    /// out.
    fn maintain(&self) {
        let now = Instant::now();
        let rebuilds: Vec<(FormKey, Arc<PreparedProgram>)> = lock(&self.cache)
            .iter_mut()
            .filter(
                |(_, e)| matches!(e.residency, Residency::Lost { retry_at, .. } if retry_at <= now),
            )
            .map(|(key, e)| (key.clone(), Arc::clone(&e.prepared)))
            .collect();
        for (key, prepared) in &rebuilds {
            if self.is_shutdown() {
                return;
            }
            self.rebuild(key, prepared);
        }
    }

    /// One background rebuild attempt of a lost form from a fresh
    /// snapshot. Failure is counted as a poisoning and doubles the form's
    /// backoff ([`rebuild_backoff_ms`]); the wait is `retry_at` in the
    /// entry, so nothing else waits with it.
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
                    let wait = rebuild_backoff_ms(self.cfg.rebuild_ms, *attempts);
                    *attempts += 1;
                    *retry_at = Instant::now() + Duration::from_millis(wait);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;

    #[test]
    fn a_huge_rebuild_base_yields_non_decreasing_capped_waits() {
        // 2^62 << 2 wraps to 0: unnormalized, the second failed rebuild
        // would retry on every tick.
        let state = ServerState::from_config(&ServerConfig {
            rebuild_ms: 1 << 62,
            ..ServerConfig::default()
        })
        .unwrap();
        let base = state.cfg.rebuild_ms;
        assert_eq!(base, REBUILD_BACKOFF_CAP_MS);
        let waits: Vec<u64> = (1..=40).map(|a| rebuild_backoff_ms(base, a)).collect();
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "{waits:?}");
        assert!(
            waits.iter().all(|&w| w == REBUILD_BACKOFF_CAP_MS),
            "{waits:?}"
        );
        // The other end: zero is raised to 1 ms, and doubles from there.
        let state = ServerState::from_config(&ServerConfig {
            rebuild_ms: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        let waits: Vec<u64> = (1..=40)
            .map(|a| rebuild_backoff_ms(state.cfg.rebuild_ms, a))
            .collect();
        assert_eq!(waits[..3], [2, 4, 8]);
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "{waits:?}");
        assert_eq!(waits.last(), Some(&REBUILD_BACKOFF_CAP_MS));
    }
}
