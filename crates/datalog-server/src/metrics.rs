//! The server's metric surface: one [`Registry`] plus named handles for
//! every instrumented point, created once at startup and shared by all
//! worker threads.
//!
//! Everything the old ad-hoc `STATS` counters tracked now lives here, so
//! `STATS`, the `METRICS` verb and the slow-query log all read the *same*
//! atomics — there is no second bookkeeping path to drift. The naming
//! follows Prometheus conventions: `_total` for counters, `_seconds` for
//! latency histograms (recorded in nanoseconds, rendered as seconds),
//! label sets for families that partition one concept (`verb`, `phase`,
//! `kind`).
//!
//! Overhead budget (verified by bench experiment e13): a request records
//! one counter increment and one histogram sample per lifecycle phase —
//! each a handful of relaxed `fetch_add`s — plus two `Instant::now()`
//! calls per span. With `--no-metrics` the registry is built disabled and
//! every histogram sample reduces to a single branch; counters still
//! record so `STATS` stays truthful either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datalog_trace::metrics::EvalHists;
use datalog_trace::{Counter, Gauge, Histogram, Json, Registry};

use crate::protocol::Request;

/// The protocol verbs, indexed by [`verb_index`].
pub const VERBS: [&str; 7] = [
    "FACT", "LOAD", "QUERY", "STATS", "TRACE", "METRICS", "SHUTDOWN",
];

/// The query lifecycle phases, indexed by [`Phase`].
pub const PHASES: [&str; 4] = ["parse", "cache", "eval", "serialize"];

/// Index into [`ServerMetrics::phase_seconds`].
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Parse + adornment + validation of the query text.
    Parse = 0,
    /// Prepared-form cache lookup (includes the optimizer on a cold miss).
    Cache = 1,
    /// Fixpoint evaluation.
    Eval = 2,
    /// Answer rendering + memoization.
    Serialize = 3,
}

/// Index of a request's verb into the per-verb metric arrays.
pub fn verb_index(req: &Request) -> usize {
    match req {
        Request::Fact(_) => 0,
        Request::Load(_) => 1,
        Request::Query { .. } => 2,
        Request::Stats => 3,
        Request::Trace => 4,
        Request::Metrics { .. } => 5,
        Request::Shutdown => 6,
    }
}

/// Every metric handle the server records into.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Monotone request-id source; ids appear in spans and the slow-query
    /// log so one request's phases can be correlated across surfaces.
    request_ids: AtomicU64,

    /// Requests per verb (accepted and answered, including errors).
    pub requests_total: [Arc<Counter>; 7],
    /// End-to-end request latency per verb.
    pub request_seconds: [Arc<Histogram>; 7],
    /// Query lifecycle phase latency (parse → cache → eval → serialize).
    pub phase_seconds: [Arc<Histogram>; 4],

    /// Queries admitted past admission control.
    pub queries: Arc<Counter>,
    /// Prepared-form reuse (optimizer skipped).
    pub prepared_hits: Arc<Counter>,
    /// Memoized-answer reuse (evaluation skipped too).
    pub answer_hits: Arc<Counter>,
    /// Cold misses (full optimizer run).
    pub cache_misses: Arc<Counter>,
    /// Lookups that found their form's answer slot out of date.
    pub invalidations: Arc<Counter>,
    /// New facts applied to resident forms by delta propagation.
    pub incremental_applied_facts: Arc<Counter>,
    /// Delta-propagation latency (one resident form's catch-up: pending
    /// shared-store rows pushed through the retained semi-naive state).
    pub incremental_seconds: Arc<Histogram>,
    /// Eligible queries that found their resident state evicted or
    /// poisoned and recomputed from cold (then re-pinned).
    pub fallback_recomputes: Arc<Counter>,
    /// Queries refused before evaluation because their static derivation
    /// bound, evaluated against current EDB cardinalities, exceeded the
    /// configured fact budget (`ERR bound`).
    pub admission_rejected: Arc<Counter>,

    /// Resident forms rebuilt after poisoning or eviction — lazily on an
    /// eligible query or by the background maintenance loop.
    pub resident_rebuilds: Arc<Counter>,
    /// Resident propagations that failed and poisoned their form.
    pub resident_poisonings: Arc<Counter>,
    /// Queries answered from a published-but-lagging frontier or a stale
    /// answer memo (bounded/any consistency; never `fresh`).
    pub stale_serves: Arc<Counter>,
    /// Bounded-staleness queries refused with `ERR stale` because the
    /// bound could not be met within the backpressure policy.
    pub stale_refusals: Arc<Counter>,
    /// Resident drains completed by the background maintenance thread
    /// (deferred off the ingest path by the drain-cost policy).
    pub background_drains: Arc<Counter>,
    /// The upper staleness bound reported on served queries (seconds;
    /// fresh serves record 0).
    pub staleness_bound_seconds: Arc<Histogram>,

    /// Bloom-gated index probes against sealed storage runs (engine-wide,
    /// delta-synced from the process counters at scrape time).
    pub bloom_probes: Arc<Counter>,
    /// Probes short-circuited by a run's bloom filter (no binary search).
    pub bloom_skips: Arc<Counter>,
    /// Sorted-run consolidations (geometric merges at seal points).
    pub storage_consolidations: Arc<Counter>,
    /// Index structures rebuilt from sealed runs by late `ensure_index`.
    pub index_rebuilds: Arc<Counter>,
    /// Consolidation (run-merge) duration.
    pub consolidation_seconds: Arc<Histogram>,
    /// Sealed storage runs across the shared EDB and resident forms
    /// (sampled at scrape time).
    pub storage_runs: Arc<Gauge>,
    /// Last-seen values of the process-wide storage counters, so scrapes
    /// publish deltas exactly once even when concurrent.
    seen_storage: [AtomicU64; 4],

    /// WAL append latency (write + policy fsync).
    pub wal_append_seconds: Arc<Histogram>,
    /// WAL fsync latency alone.
    pub wal_fsync_seconds: Arc<Histogram>,
    /// WAL append/compaction failures.
    pub wal_errors: Arc<Counter>,
    /// Snapshot compaction duration.
    pub compaction_seconds: Arc<Histogram>,

    /// Connections shed at the connection limit.
    pub shed_conns: Arc<Counter>,
    /// Queries shed at the in-flight budget.
    pub shed_queries: Arc<Counter>,
    /// Wall-clock deadline trips.
    pub deadline_trips: Arc<Counter>,
    /// Derived-fact budget trips.
    pub budget_trips: Arc<Counter>,
    /// Iteration-cap trips.
    pub iteration_trips: Arc<Counter>,
    /// Queries cancelled by the shutdown drain.
    pub cancelled_queries: Arc<Counter>,
    /// Handler panics contained by `catch_unwind`.
    pub panics_recovered: Arc<Counter>,
    /// Limit events evicted from the ring before anyone read them.
    pub limit_events_dropped: Arc<Counter>,
    /// Queries that crossed the `--slow-query-ms` threshold.
    pub slow_queries: Arc<Counter>,

    /// Queries evaluating right now (sampled at scrape time).
    pub inflight: Arc<Gauge>,
    /// Connections being served right now (sampled at scrape time).
    pub active_conns: Arc<Gauge>,
    /// Committed facts (sampled at scrape time).
    pub facts: Arc<Gauge>,
    /// Prepared forms cached (sampled at scrape time).
    pub prepared_forms: Arc<Gauge>,
    /// Forms holding resident incremental state (sampled at scrape time).
    pub resident_forms: Arc<Gauge>,

    /// The engine-side histograms (task enumeration / queue wait / merge),
    /// threaded into every evaluation via `EvalOptions::metrics`.
    pub eval: EvalHists,
}

impl ServerMetrics {
    /// Build the full metric surface on a fresh registry. `enabled = false`
    /// is the no-op baseline (`--no-metrics`): histograms stop sampling,
    /// counters keep counting.
    pub fn new(enabled: bool) -> ServerMetrics {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let requests_total = VERBS.map(|v| {
            registry.counter(
                "xdl_requests_total",
                "Requests handled, by protocol verb.",
                &[("verb", v)],
            )
        });
        let request_seconds = VERBS.map(|v| {
            registry.histogram(
                "xdl_request_seconds",
                "End-to-end request latency, by protocol verb.",
                &[("verb", v)],
            )
        });
        let phase_seconds = PHASES.map(|p| {
            registry.histogram(
                "xdl_query_phase_seconds",
                "Query lifecycle phase latency (parse, cache, eval, serialize).",
                &[("phase", p)],
            )
        });
        let cache_event = |kind| {
            registry.counter(
                "xdl_cache_events_total",
                "Prepared-query cache events, by kind.",
                &[("kind", kind)],
            )
        };
        let shed = |kind| {
            registry.counter(
                "xdl_shed_total",
                "Work refused by overload control, by kind.",
                &[("kind", kind)],
            )
        };
        let trip = |kind| {
            registry.counter(
                "xdl_limit_trips_total",
                "Resource-limit trips, by kind.",
                &[("kind", kind)],
            )
        };
        let eval = EvalHists::register(&registry);
        ServerMetrics {
            request_ids: AtomicU64::new(0),
            requests_total,
            request_seconds,
            phase_seconds,
            queries: registry.counter(
                "xdl_queries_total",
                "Queries admitted past admission control.",
                &[],
            ),
            prepared_hits: cache_event("prepared_hit"),
            answer_hits: cache_event("answer_hit"),
            cache_misses: cache_event("miss"),
            invalidations: cache_event("invalidation"),
            incremental_applied_facts: registry.counter(
                "xdl_incremental_applied_facts_total",
                "New facts applied to resident forms by delta propagation.",
                &[],
            ),
            incremental_seconds: registry.histogram(
                "xdl_incremental_propagation_seconds",
                "Latency of one resident form's delta catch-up.",
                &[],
            ),
            fallback_recomputes: registry.counter(
                "xdl_fallback_recomputes_total",
                "Eligible queries whose resident state was gone (evicted or \
                 poisoned) and recomputed from cold.",
                &[],
            ),
            admission_rejected: registry.counter(
                "xdl_admission_rejected_total",
                "Queries refused before evaluation because the static \
                 derivation bound exceeded the fact budget.",
                &[],
            ),
            resident_rebuilds: registry.counter(
                "xdl_resident_rebuilds_total",
                "Resident forms rebuilt after poisoning or eviction (lazy \
                 or background).",
                &[],
            ),
            resident_poisonings: registry.counter(
                "xdl_resident_poisonings_total",
                "Resident delta propagations that failed and poisoned \
                 their form.",
                &[],
            ),
            stale_serves: registry.counter(
                "xdl_stale_serves_total",
                "Queries served from a lagging frontier or stale memo \
                 under bounded/any consistency.",
                &[],
            ),
            stale_refusals: registry.counter(
                "xdl_stale_refusals_total",
                "Bounded-staleness queries refused with ERR stale.",
                &[],
            ),
            background_drains: registry.counter(
                "xdl_background_drains_total",
                "Resident drains completed by the maintenance thread.",
                &[],
            ),
            staleness_bound_seconds: registry.histogram(
                "xdl_staleness_bound_seconds",
                "Upper staleness bound reported on served queries (0 for \
                 fresh serves).",
                &[],
            ),
            bloom_probes: registry.counter(
                "xdl_bloom_probes_total",
                "Bloom-gated index probes against sealed storage runs.",
                &[],
            ),
            bloom_skips: registry.counter(
                "xdl_bloom_skips_total",
                "Run probes short-circuited by the bloom filter.",
                &[],
            ),
            storage_consolidations: registry.counter(
                "xdl_storage_consolidations_total",
                "Sorted-run consolidations (geometric merges).",
                &[],
            ),
            index_rebuilds: registry.counter(
                "xdl_index_rebuilds_total",
                "Index structures rebuilt from sealed runs by late \
                 ensure_index.",
                &[],
            ),
            consolidation_seconds: registry.histogram(
                "xdl_storage_consolidation_seconds",
                "Sorted-run consolidation (merge) duration.",
                &[],
            ),
            storage_runs: registry.gauge(
                "xdl_storage_runs",
                "Sealed storage runs across the shared EDB and resident \
                 forms.",
                &[],
            ),
            seen_storage: Default::default(),
            wal_append_seconds: registry.histogram(
                "xdl_wal_append_seconds",
                "WAL append latency (record write plus policy fsync).",
                &[],
            ),
            wal_fsync_seconds: registry.histogram(
                "xdl_wal_fsync_seconds",
                "WAL fsync latency.",
                &[],
            ),
            wal_errors: registry.counter(
                "xdl_wal_errors_total",
                "WAL append or compaction failures.",
                &[],
            ),
            compaction_seconds: registry.histogram(
                "xdl_compaction_seconds",
                "Snapshot compaction duration.",
                &[],
            ),
            shed_conns: shed("connection"),
            shed_queries: shed("query"),
            deadline_trips: trip("deadline"),
            budget_trips: trip("budget"),
            iteration_trips: trip("iterations"),
            cancelled_queries: trip("cancelled"),
            panics_recovered: registry.counter(
                "xdl_panics_recovered_total",
                "Handler panics contained by the request isolation boundary.",
                &[],
            ),
            limit_events_dropped: registry.counter(
                "xdl_limit_events_dropped_total",
                "Limit events evicted from the STATS ring buffer.",
                &[],
            ),
            slow_queries: registry.counter(
                "xdl_slow_queries_total",
                "Queries over the --slow-query-ms threshold.",
                &[],
            ),
            inflight: registry.gauge("xdl_inflight_queries", "Queries evaluating now.", &[]),
            active_conns: registry.gauge(
                "xdl_active_connections",
                "Connections being served now.",
                &[],
            ),
            facts: registry.gauge("xdl_facts", "Committed facts in the EDB.", &[]),
            prepared_forms: registry.gauge(
                "xdl_prepared_forms",
                "Prepared query forms currently cached.",
                &[],
            ),
            resident_forms: registry.gauge(
                "xdl_resident_forms",
                "Forms currently holding resident incremental state.",
                &[],
            ),
            eval,
            registry,
        }
    }

    /// Whether histograms sample (false under `--no-metrics`).
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// Next monotone request id (1-based).
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pull the engine's process-wide storage counters into the registry
    /// (publishing only the delta since the last sync, so concurrent
    /// scrapes never double-count), drain pending consolidation timings
    /// into the histogram, and sample the run-count gauge. Called by
    /// `STATS` and `METRICS` before rendering.
    pub fn sync_storage(&self, runs: u64) {
        let c = datalog_engine::storage_counters();
        let observed = [
            (c.bloom_probes, &self.bloom_probes),
            (c.bloom_skips, &self.bloom_skips),
            (c.consolidations, &self.storage_consolidations),
            (c.index_rebuilds, &self.index_rebuilds),
        ];
        for (i, (cur, counter)) in observed.into_iter().enumerate() {
            let prev = self.seen_storage[i].swap(cur, Ordering::Relaxed);
            counter.add(cur.saturating_sub(prev));
        }
        for ns in datalog_engine::take_consolidation_ns() {
            self.consolidation_seconds.record(ns);
        }
        self.storage_runs.set(runs as i64);
    }

    /// Prometheus text exposition of the whole registry.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// JSON readout of the whole registry.
    pub fn to_json(&self) -> Json {
        self.registry.to_json()
    }
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_indexes_match_names() {
        assert_eq!(VERBS[verb_index(&Request::Fact("p(1).".into()))], "FACT");
        assert_eq!(VERBS[verb_index(&Request::Stats)], "STATS");
        assert_eq!(
            VERBS[verb_index(&Request::Metrics { json: true })],
            "METRICS"
        );
        assert_eq!(VERBS[verb_index(&Request::Shutdown)], "SHUTDOWN");
    }

    #[test]
    fn exposition_covers_the_required_families() {
        let m = ServerMetrics::new(true);
        m.requests_total[2].inc();
        m.request_seconds[2].record(1_000);
        m.wal_fsync_seconds.record(2_000);
        m.eval.task_enum.record(500);
        let text = m.render_prometheus();
        for family in [
            "xdl_requests_total",
            "xdl_request_seconds",
            "xdl_query_phase_seconds",
            "xdl_cache_events_total",
            "xdl_wal_fsync_seconds",
            "xdl_shed_total",
            "xdl_limit_trips_total",
            "xdl_eval_task_enum_seconds",
            "xdl_eval_merge_seconds",
            "xdl_resident_rebuilds_total",
            "xdl_resident_poisonings_total",
            "xdl_stale_serves_total",
            "xdl_stale_refusals_total",
            "xdl_background_drains_total",
            "xdl_staleness_bound_seconds",
            "xdl_bloom_probes_total",
            "xdl_bloom_skips_total",
            "xdl_storage_consolidations_total",
            "xdl_index_rebuilds_total",
            "xdl_storage_consolidation_seconds",
            "xdl_storage_runs",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family}")),
                "{family} missing"
            );
        }
        assert!(text.contains("xdl_requests_total{verb=\"QUERY\"} 1"));
    }

    #[test]
    fn storage_sync_is_delta_once_and_samples_the_gauge() {
        // The engine counters are process-wide (other tests in this
        // process may bump them concurrently), so assert the delta
        // discipline, not exact values: repeated syncs never push the
        // registry counter past the global it mirrors.
        let m = ServerMetrics::new(true);
        m.sync_storage(3);
        assert_eq!(m.storage_runs.get(), 3);
        m.sync_storage(5);
        m.sync_storage(5);
        assert_eq!(m.storage_runs.get(), 5);
        let global = datalog_engine::storage_counters();
        assert!(m.bloom_probes.get() <= global.bloom_probes);
        assert!(m.bloom_skips.get() <= global.bloom_skips);
        assert!(m.index_rebuilds.get() <= global.index_rebuilds);
    }

    #[test]
    fn request_ids_are_monotone() {
        let m = ServerMetrics::new(false);
        assert_eq!(m.next_request_id(), 1);
        assert_eq!(m.next_request_id(), 2);
        assert!(!m.enabled());
    }
}
