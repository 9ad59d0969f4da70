//! # metrics — always-on server telemetry
//!
//! A std-only metrics subsystem in three pieces:
//!
//! * [`hist`] — fixed-size log-linear (HDR-style) latency histograms over
//!   relaxed atomics, with p50/p90/p99/max readout;
//! * [`registry`] — a process-wide [`Registry`] of named counter / gauge /
//!   histogram families rendering both Prometheus text exposition and the
//!   workspace's [`Json`](crate::Json) style;
//! * [`EvalHists`] — the engine-side bundle: per-task enumeration wall and
//!   per-round merge time.
//!
//! The overhead contract (measured by the benchmark's
//! `trace.histogram_record_ns` and `trace.span_overhead_ratio`): a recording
//! span is two `Instant::now()` calls plus one relaxed `fetch_add` chain.
//! The registry lock is touched only at registration and scrape time, never
//! per sample.

pub mod hist;
pub mod registry;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, Histogram, BUCKETS, SUB_BUCKETS};
pub use registry::{Counter, Gauge, MetricKind, Registry};

use std::sync::Arc;

/// Histogram handles threaded into the evaluation engine via
/// `EvalOptions`. Cloning shares the underlying atomics, so every query's
/// evaluation records into the same fixed arrays without coordination.
#[derive(Debug, Clone)]
pub struct EvalHists {
    /// Wall time of one enumeration task (nanoseconds).
    pub task_enum: Arc<Histogram>,
    /// Per-round merge time: applying the round's buffered candidates to
    /// the database (nanoseconds).
    pub merge: Arc<Histogram>,
}

impl EvalHists {
    /// Register the two engine histograms on `registry`.
    pub fn register(registry: &Registry) -> EvalHists {
        EvalHists {
            task_enum: registry.histogram(
                "xdl_eval_task_enum_seconds",
                "Wall time of one enumeration task.",
                &[],
            ),
            merge: registry.histogram(
                "xdl_eval_merge_seconds",
                "Merge time per evaluation round.",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Satellite coverage: exact bucket edges, saturation at the top
    // bucket, merge == concatenation, and concurrent recording losing
    // nothing across 8 threads.

    #[test]
    fn values_on_bucket_edges_land_in_their_own_bucket() {
        // Both edges of every bucket belong to that bucket, and the value
        // one past the upper edge belongs to the next.
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        // Powers of two are always lower edges.
        for p in 4..63u32 {
            let v = 1u64 << p;
            assert_eq!(bucket_bounds(bucket_index(v)).0, v);
        }
    }

    #[test]
    fn saturation_at_the_max_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2, "both land in the top bucket");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs: Vec<u64> = (0..500).map(|i| i * 37 % 10_000).collect();
        let ys: Vec<u64> = (0..300).map(|i| i * 101 % 1_000_000).collect();
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread across many buckets.
                        h.record(t * 1_000_000 + i * 13);
                    }
                });
            }
        });
        let snap = h.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.count, total, "count lost samples");
        let bucket_total: u64 = snap.buckets.iter().sum();
        assert_eq!(bucket_total, total, "buckets lost samples");
        let expected_sum: u64 = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| t * 1_000_000 + i * 13))
            .sum();
        assert_eq!(snap.sum, expected_sum, "sum lost samples");
    }

    #[test]
    fn eval_hists_register_on_both_registry_modes() {
        let on = Registry::new();
        let hists = EvalHists::register(&on);
        hists.task_enum.record(10);
        assert_eq!(hists.task_enum.snapshot().count, 1);
    }
}
