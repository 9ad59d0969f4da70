//! Log-linear latency histograms over relaxed atomics.
//!
//! The layout is the HDR-histogram idea reduced to its std-only core: the
//! value domain (`u64`, nanoseconds by convention) is split into octaves,
//! each octave into [`SUB_BUCKETS`] linear sub-buckets, so relative error
//! is bounded by `1/SUB_BUCKETS` (12.5%) everywhere while the whole range
//! `0..=u64::MAX` fits in a fixed [`BUCKETS`]-slot array. Recording is one
//! relaxed `fetch_add` per sample plus three bookkeeping adds — no locks,
//! no allocation, safe to call from every evaluation worker at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per octave (8 → ≤12.5% relative error per bucket).
pub const SUB_BUCKETS: usize = 8;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 3;
/// Total bucket count covering all of `u64`: indexes `0..16` are exact
/// (values below `2 * SUB_BUCKETS`), then 8 per octave up to `2^64`.
pub const BUCKETS: usize = 2 * SUB_BUCKETS + (63 - SUB_BITS as usize) * SUB_BUCKETS;

/// Map a value to its bucket index. Total order preserving: if `a <= b`
/// then `bucket_index(a) <= bucket_index(b)`.
pub fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB_BUCKETS) as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
    (shift as usize + 1) * SUB_BUCKETS + sub
}

/// Inclusive `[lower, upper]` value range of bucket `i`.
///
/// Every value in the range maps to `i` under [`bucket_index`], and the
/// ranges tile the whole domain: `lower(i + 1) == upper(i) + 1`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index out of range");
    if i < 2 * SUB_BUCKETS {
        return (i as u64, i as u64);
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    let lower = (SUB_BUCKETS as u64 + sub) << shift;
    let width = 1u64 << shift;
    (lower, lower + (width - 1))
}

/// A fixed-size concurrent histogram. All mutation is `Ordering::Relaxed`:
/// per-sample totals are exact (atomic adds never lose increments), only
/// cross-field consistency during a concurrent snapshot is approximate,
/// which is fine for telemetry.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (nanoseconds by convention).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`Duration`] as nanoseconds (saturating past `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram's samples into this one. The result is
    /// bucket-for-bucket identical to having recorded the concatenation of
    /// both sample streams.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for readout.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A consistent-enough copy of a [`Histogram`] for quantile readout and
/// exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the midpoint of the bucket holding
    /// the rank, clamped by the observed max. Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo + (hi - lo) / 2).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 on empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_exact_below_two_octaves() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
        }
    }

    #[test]
    fn bounds_tile_the_domain() {
        // Every bucket's range maps back to it, and ranges are adjacent.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower edge of {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of {i}");
            if i + 1 < BUCKETS {
                let (next_lo, _) = bucket_bounds(i + 1);
                assert_eq!(next_lo, hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn index_is_monotone_on_edges() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            let (lo, _) = bucket_bounds(i);
            let idx = bucket_index(lo);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 20, (1 << 40) + 7] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            // Bucket width ≤ lower/8 for v ≥ 16 → ≤ 12.5% relative error.
            assert!((hi - lo) as f64 <= lo as f64 / 8.0 + 1.0, "v={v}");
        }
    }

    #[test]
    fn quantiles_match_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // 12.5% bucket resolution: quantiles land near the true values.
        let p50 = s.quantile(0.50) as f64;
        let p99 = s.quantile(0.99) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }
}
