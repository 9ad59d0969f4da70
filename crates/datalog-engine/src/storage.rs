//! Sorted-run (LSM-style) storage primitives behind
//! [`crate::relation::Relation`], the one tuple store.
//!
//! A relation's rows live in one [`Rows`] store: append-only, in insertion
//! order (that contract is what semi-naive delta ranges are built on), and
//! arity-strided in one flat `Vec<Value>`, so a row is a slice of it and
//! not an allocation of its own. Beside the rows sit *acceleration
//! structures* that hold no second copy of a tuple, only hashes, ids and
//! projected keys. Rows are covered by a small mutable tail (ids keyed by
//! hash, verified against the rows) and a stack of immutable sorted
//! **runs**:
//!
//! - a **dedup run** ([`TupleRuns`]) holds `(tuple hash, id)` pairs for a
//!   contiguous insertion range, sorted by hash — membership is a
//!   bloom-gated binary search over a flat `u64` array, touching the row
//!   store only to verify the rare hash match;
//! - an **index run** ([`IndexRuns`]) holds the same id range sorted by
//!   (projection hash, projection, id), with the hashes and projection
//!   keys materialized in flat arrays — a probe binary-searches the
//!   contiguous `u64` hash array, compares real keys only inside the
//!   equal-hash span, and clamps the key's group to the requested delta
//!   range; the row store is never touched.
//!
//! **Run contiguity.** Every run covers a contiguous id range, runs are
//! stacked in range order, and ids within a key's group in one run are
//! ascending. So emitting per-run group slices in run order, then the
//! tail's postings, yields exactly the ids in `[start, end)` whose key
//! matches, in ascending order — the order a filtered scan of the rows
//! produces, and the invariant that keeps evaluation independent of where
//! the run boundaries fall.
//!
//! A tail is sealed into a run when it reaches [`TAIL_LIMIT`] rows, and
//! runs are consolidated geometrically so at most O(log n) runs exist.
//! Consolidation is a deterministic two-way merge over the runs' own
//! materialized keys — rows are hashed/projected once at first seal and
//! never revisited, so merges are linear passes over flat arrays.
//!
//! Telemetry (bloom probe/skip counts, consolidations, index rebuilds,
//! consolidation durations) is recorded in process-wide atomics so the
//! server can surface it without threading handles through the evaluator.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use datalog_ast::Value;

/// Rows covered by the mutable tail before an automatic seal.
pub const TAIL_LIMIT: usize = 1024;

/// Hasher state for run tails (see [`FastHasher`]). Tail maps are never
/// iterated — only probed and cleared — so the hasher cannot leak into
/// any observable ordering.
pub type FastBuild = std::hash::BuildHasherDefault<FastHasher>;

/// A sorted-run index's mutable tail: projection hash → the ascending ids
/// of the rows whose projection is that of the first one, fast-hashed (the
/// tail is bounded by [`TAIL_LIMIT`] and hot). A row whose projection
/// hashes alike but differs goes to the collision postings, keyed by the
/// projection itself.
type TailPostings = HashMap<u64, Vec<u32>, FastBuild>;

// ---------------------------------------------------------------------------
// Row store
// ---------------------------------------------------------------------------

/// The rows of one relation, arity-strided in one flat vector: row `i` is
/// `vals[i * arity..(i + 1) * arity]`. The only full copy of every stored
/// tuple; ids are positions, so a row never moves.
#[derive(Debug, Clone)]
pub struct Rows {
    arity: usize,
    /// Row count (a zero-arity relation stores no values).
    len: usize,
    vals: Vec<Value>,
}

impl Rows {
    /// An empty store of the given arity.
    pub fn new(arity: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            vals: Vec::new(),
        }
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row by id.
    #[inline]
    pub fn row(&self, id: usize) -> &[Value] {
        debug_assert!(id < self.len, "row {id} of {}", self.len);
        &self.vals[id * self.arity..(id + 1) * self.arity]
    }

    /// Append a row; its id is the previous [`Rows::len`].
    pub fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.vals.extend_from_slice(row);
        self.len += 1;
    }

    /// Rows `[start, end)` in id order.
    pub fn range(&self, start: usize, end: usize) -> impl Iterator<Item = &[Value]> + '_ {
        (start..end).map(move |id| self.row(id))
    }

    /// Drop every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.vals.clear();
        self.len = 0;
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

static BLOOM_PROBES: AtomicU64 = AtomicU64::new(0);
static BLOOM_SKIPS: AtomicU64 = AtomicU64::new(0);
static CONSOLIDATIONS: AtomicU64 = AtomicU64::new(0);
static INDEX_REBUILDS: AtomicU64 = AtomicU64::new(0);
/// Durations of recent consolidations, drained by the metrics scrape.
static CONSOLIDATION_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());
const CONSOLIDATION_NS_CAP: usize = 4096;

/// A snapshot of the process-wide storage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    pub bloom_probes: u64,
    pub bloom_skips: u64,
    pub consolidations: u64,
    pub index_rebuilds: u64,
}

/// Read the process-wide storage counters (monotone).
pub fn storage_counters() -> StorageCounters {
    StorageCounters {
        bloom_probes: BLOOM_PROBES.load(Ordering::Relaxed),
        bloom_skips: BLOOM_SKIPS.load(Ordering::Relaxed),
        consolidations: CONSOLIDATIONS.load(Ordering::Relaxed),
        index_rebuilds: INDEX_REBUILDS.load(Ordering::Relaxed),
    }
}

/// Drain the recorded consolidation durations (ns) since the last drain.
pub fn take_consolidation_ns() -> Vec<u64> {
    match CONSOLIDATION_NS.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Record one consolidation pass (count + duration).
pub fn note_consolidation(ns: u64) {
    CONSOLIDATIONS.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut v) = CONSOLIDATION_NS.lock() {
        if v.len() < CONSOLIDATION_NS_CAP {
            v.push(ns);
        }
    }
}

fn note_index_rebuild() {
    INDEX_REBUILDS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Hashing + bloom filter
// ---------------------------------------------------------------------------

/// A fast multiply-rotate hasher in the FxHash family. These hashes feed
/// bloom filters and dedup runs that live only in memory (snapshots on
/// disk store raw values), so we trade SipHash's collision hardening for
/// a few nanoseconds per key — the dedup path verifies real tuples on
/// every hash match anyway, so collisions cost time, never correctness.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so the low bits (used by the bloom mask) carry
        // entropy from the whole state.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.fold(i as u64);
    }
}

/// Deterministic fast 64-bit hash of a value sequence (see [`FastHasher`]).
pub fn hash_key(vals: impl Iterator<Item = Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FastHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// A small bloom filter over 64-bit key hashes (two probes derived from the
/// halves of one hash). Sized at ~8 bits per element, rounded up to a
/// power of two, so the false-positive rate stays under ~5%.
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Box<[u64]>,
    mask: u64,
}

impl Bloom {
    /// Build a filter holding every hash in `hashes`.
    pub fn build(hashes: impl Iterator<Item = u64>, count_hint: usize) -> Bloom {
        let bits = (count_hint.max(8) * 8).next_power_of_two() as u64;
        let mut f = Bloom {
            bits: vec![0u64; (bits / 64) as usize].into_boxed_slice(),
            mask: bits - 1,
        };
        for h in hashes {
            for bit in f.probes(h) {
                f.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        f
    }

    fn probes(&self, h: u64) -> [u64; 2] {
        [h & self.mask, (h >> 32 ^ h << 17) & self.mask]
    }

    /// False means the hash is definitely absent; true means "maybe".
    pub fn may_contain(&self, h: u64) -> bool {
        self.probes(h)
            .iter()
            .all(|&bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Heap footprint of the bit array.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

// ---------------------------------------------------------------------------
// Probe results
// ---------------------------------------------------------------------------

const INLINE_SEGS: usize = 8;

/// The result of a sorted-run probe: a handful of id slices (one per run
/// plus the tail) whose concatenation is ascending. Runs are consolidated
/// to O(log n), so the inline segment array almost never spills.
#[derive(Debug)]
pub struct ProbeHits<'a> {
    inline: [&'a [u32]; INLINE_SEGS],
    inline_len: usize,
    spill: Vec<&'a [u32]>,
}

impl<'a> ProbeHits<'a> {
    /// An empty result.
    pub fn new() -> ProbeHits<'a> {
        ProbeHits {
            inline: [&[]; INLINE_SEGS],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Append a segment (ids ascending, all greater than prior segments).
    pub fn push(&mut self, seg: &'a [u32]) {
        if seg.is_empty() {
            return;
        }
        if self.inline_len < INLINE_SEGS {
            self.inline[self.inline_len] = seg;
            self.inline_len += 1;
        } else {
            self.spill.push(seg);
        }
    }

    /// Iterate the hit ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.inline[..self.inline_len]
            .iter()
            .chain(self.spill.iter())
            .flat_map(|seg| seg.iter().copied())
    }

    /// Total number of hits.
    pub fn len(&self) -> usize {
        self.inline[..self.inline_len]
            .iter()
            .chain(self.spill.iter())
            .map(|seg| seg.len())
            .sum()
    }

    /// Whether there are no hits.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    /// Collect the hits (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl Default for ProbeHits<'_> {
    fn default() -> Self {
        ProbeHits::new()
    }
}

// ---------------------------------------------------------------------------
// Dedup runs
// ---------------------------------------------------------------------------

/// One immutable dedup run covering rows `[start, start + ids.len())`:
/// parallel `(hash, id)` arrays sorted by (hash, id), plus a bloom filter
/// over the hashes. Tuples are hashed once when first sealed; merges and
/// membership probes then work over the flat hash array and only touch
/// the row store to verify an actual hash match.
#[derive(Debug, Clone)]
struct DedupRun {
    start: u32,
    hashes: Vec<u64>,
    ids: Vec<u32>,
    bloom: Bloom,
}

/// Duplicate elimination over an external row store: sealed sorted runs
/// plus a bounded mutable tail. The row store keeps the only full copy of
/// every tuple — runs hold a hash and a 4-byte id per row, the tail an id
/// keyed by hash.
#[derive(Debug, Clone, Default)]
pub struct TupleRuns {
    runs: Vec<DedupRun>,
    /// Rows `[0, sealed)` are covered by `runs`; `[sealed, len)` by `tail`
    /// and `collided`.
    sealed: usize,
    /// Tuple hash → id of the tail row with that hash.
    tail: HashMap<u64, u32, FastBuild>,
    /// Tail rows whose hash an earlier tail row already holds.
    collided: Vec<u32>,
}

impl TupleRuns {
    /// Membership test of `tuple`, whose [`hash_key`] is `h`, against
    /// `rows` (the external row store).
    pub fn contains(&self, rows: &Rows, tuple: &[Value], h: u64) -> bool {
        if self
            .tail
            .get(&h)
            .into_iter()
            .chain(&self.collided)
            .any(|&id| rows.row(id as usize) == tuple)
        {
            return true;
        }
        if self.runs.is_empty() {
            return false;
        }
        let (mut probes, mut skips) = (0u64, 0u64);
        let mut found = false;
        for run in &self.runs {
            probes += 1;
            if !run.bloom.may_contain(h) {
                skips += 1;
                continue;
            }
            let lo = run.hashes.partition_point(|&x| x < h);
            for i in lo..run.hashes.len() {
                if run.hashes[i] != h {
                    break;
                }
                if rows.row(run.ids[i] as usize) == tuple {
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
        }
        BLOOM_PROBES.fetch_add(probes, Ordering::Relaxed);
        if skips != 0 {
            BLOOM_SKIPS.fetch_add(skips, Ordering::Relaxed);
        }
        found
    }

    /// Record a freshly inserted (known-new) row `id`, whose tuple hashes
    /// to `h`, in the tail.
    pub fn note_insert(&mut self, h: u64, id: u32) {
        match self.tail.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            // A distinct tuple of the same hash: the first keeps the slot.
            Entry::Occupied(_) => self.collided.push(id),
        }
    }

    /// Number of rows in the mutable tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len() + self.collided.len()
    }

    /// First row id not covered by a sealed run.
    pub fn sealed(&self) -> usize {
        self.sealed
    }

    /// Number of sealed runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The (start, end) id ranges of the sealed runs, in id order.
    pub fn bounds(&self) -> Vec<(usize, usize)> {
        self.runs
            .iter()
            .map(|r| (r.start as usize, r.start as usize + r.ids.len()))
            .collect()
    }

    /// Seal rows `[self.sealed, end)` into a new run and clear the tail.
    /// Each row is hashed exactly once here; later merges reuse the
    /// stored hashes.
    pub fn seal_to(&mut self, rows: &Rows, end: usize) {
        let start = self.sealed;
        debug_assert!(end >= start && end <= rows.len());
        if end == start {
            return;
        }
        let mut pairs: Vec<(u64, u32)> = (start..end)
            .map(|id| (hash_key(rows.row(id).iter().copied()), id as u32))
            .collect();
        pairs.sort_unstable();
        let bloom = Bloom::build(pairs.iter().map(|&(h, _)| h), pairs.len());
        let (hashes, ids) = pairs.into_iter().unzip();
        self.runs.push(DedupRun {
            start: start as u32,
            hashes,
            ids,
            bloom,
        });
        self.sealed = end;
        self.tail.clear();
        self.collided.clear();
    }

    /// Whether the geometric invariant calls for merging the last two runs.
    pub fn wants_merge(&self) -> bool {
        let n = self.runs.len();
        n >= 2 && self.runs[n - 2].ids.len() < 2 * self.runs[n - 1].ids.len()
    }

    /// Merge the last two runs: one linear pass over the stored `(hash,
    /// id)` pairs, no row access. Ties on hash keep the left run's pair
    /// first (its ids are always smaller), so the order stays (hash, id).
    pub fn merge_last_two(&mut self) {
        let right = self.runs.pop().expect("merge without runs");
        let left = self.runs.pop().expect("merge without a second run");
        let n = left.ids.len() + right.ids.len();
        let mut hashes = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let (mut i, mut j) = (0, 0);
        while i < left.ids.len() && j < right.ids.len() {
            if left.hashes[i] <= right.hashes[j] {
                hashes.push(left.hashes[i]);
                ids.push(left.ids[i]);
                i += 1;
            } else {
                hashes.push(right.hashes[j]);
                ids.push(right.ids[j]);
                j += 1;
            }
        }
        hashes.extend_from_slice(&left.hashes[i..]);
        ids.extend_from_slice(&left.ids[i..]);
        hashes.extend_from_slice(&right.hashes[j..]);
        ids.extend_from_slice(&right.ids[j..]);
        let bloom = Bloom::build(hashes.iter().copied(), hashes.len());
        self.runs.push(DedupRun {
            start: left.start,
            hashes,
            ids,
            bloom,
        });
    }

    /// Merge every sealed run into one. The geometric policy bounds
    /// amortized ingest cost; this is the read-optimized endpoint for
    /// idle/maintenance compaction — one bloom check and one binary
    /// search per membership probe afterwards.
    pub fn consolidate(&mut self) {
        while self.runs.len() > 1 {
            self.merge_last_two();
        }
    }

    /// Estimated heap footprint: run hash/id arrays + blooms + the tail's
    /// `(hash, id)` entries with amortized table overhead.
    pub fn bytes_estimate(&self) -> usize {
        let runs: usize = self
            .runs
            .iter()
            .map(|r| r.ids.len() * 12 + r.bloom.bytes())
            .sum();
        runs + self.tail.len() * 16 + self.collided.len() * 4
    }
}

// ---------------------------------------------------------------------------
// Index runs
// ---------------------------------------------------------------------------

/// One immutable index run: ids of rows `[start, end)` sorted by
/// (projection hash, projection, id), with the hashes and the flattened
/// projection keys (stride = column count) materialized in parallel
/// arrays. A probe binary-searches the flat `u64` hash array and compares
/// actual keys only within the (almost always single-key) equal-hash
/// span; merges reuse the stored hashes — no rehashing, no row access.
#[derive(Debug, Clone)]
struct IndexRun {
    start: u32,
    end: u32,
    hashes: Vec<u64>,
    keys: Vec<Value>,
    ids: Vec<u32>,
    bloom: Bloom,
}

impl IndexRun {
    #[inline]
    fn key_at(&self, stride: usize, i: usize) -> &[Value] {
        &self.keys[i * stride..(i + 1) * stride]
    }

    /// The contiguous id group whose projection equals `key` (hash `h`).
    /// Ids within a group are ascending.
    fn group(&self, key: &[Value], h: u64) -> &[u32] {
        let stride = key.len();
        // Equal-hash span: pure u64 binary searches over contiguous memory.
        let lo = self.hashes.partition_point(|&x| x < h);
        let hi = lo + self.hashes[lo..].partition_point(|&x| x == h);
        // Within the span, entries sort by (key, id); distinct keys in one
        // span are rare hash collisions, so a couple of binary-search key
        // comparisons pin down the group.
        let (mut a, mut b) = (lo, hi);
        while a < b {
            let mid = (a + b) / 2;
            if self.key_at(stride, mid) < key {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let first = a;
        b = hi;
        while a < b {
            let mid = (a + b) / 2;
            if self.key_at(stride, mid) <= key {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        &self.ids[first..a]
    }
}

/// A composite index backed by sorted runs plus tail postings. Run
/// boundaries are kept in lockstep with the owning relation's dedup runs:
/// `seal_range` and `merge_last_two` are driven by the same decisions.
#[derive(Debug, Clone, Default)]
pub struct IndexRuns {
    runs: Vec<IndexRun>,
    /// Tail postings for rows past the last sealed run.
    tail: TailPostings,
    /// Tail postings of projections whose hash `tail` holds for another
    /// projection.
    collided: HashMap<Box<[Value]>, Vec<u32>, FastBuild>,
}

impl IndexRuns {
    /// Build an index over already-stored rows from the dedup run bounds
    /// (cheap contiguous range scans, no full-table hash build). Counts a
    /// rebuild in the process-wide telemetry when rows exist.
    pub fn build(
        rows: &Rows,
        cols: &[usize],
        bounds: &[(usize, usize)],
        sealed: usize,
    ) -> IndexRuns {
        let mut idx = IndexRuns::default();
        for &(start, end) in bounds {
            idx.seal_range(rows, cols, start, end);
        }
        for id in sealed..rows.len() {
            idx.tail_insert(rows, cols, id as u32);
        }
        if !rows.is_empty() {
            note_index_rebuild();
        }
        idx
    }

    /// Add a tail posting for row `id`, already in `rows`.
    pub fn tail_insert(&mut self, rows: &Rows, cols: &[usize], id: u32) {
        let row = rows.row(id as usize);
        self.tail_insert_hashed(rows, cols, id, hash_key(cols.iter().map(|&c| row[c])));
    }

    /// [`IndexRuns::tail_insert`] with the projection's hash `h` given.
    fn tail_insert_hashed(&mut self, rows: &Rows, cols: &[usize], id: u32, h: u64) {
        let row = rows.row(id as usize);
        let ids = self.tail.entry(h).or_default();
        match ids.first() {
            Some(&first) if cols.iter().any(|&c| rows.row(first as usize)[c] != row[c]) => {
                let key: Box<[Value]> = cols.iter().map(|&c| row[c]).collect();
                self.collided.entry(key).or_default().push(id);
            }
            _ => ids.push(id),
        }
    }

    /// Seal rows `[start, end)` into a new run and drop their tail
    /// postings. Projections are materialized and hashed once into flat
    /// arrays and sorted there; neither the row store nor the hash
    /// function is consulted again afterwards.
    pub fn seal_range(&mut self, rows: &Rows, cols: &[usize], start: usize, end: usize) {
        if end == start {
            return;
        }
        let stride = cols.len();
        let n = end - start;
        let mut flat: Vec<Value> = Vec::with_capacity(n * stride);
        for row in rows.range(start, end) {
            flat.extend(cols.iter().map(|&c| row[c]));
        }
        let row_hashes: Vec<u64> = flat
            .chunks(stride)
            .map(|k| hash_key(k.iter().copied()))
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            row_hashes[a]
                .cmp(&row_hashes[b])
                .then_with(|| {
                    flat[a * stride..(a + 1) * stride].cmp(&flat[b * stride..(b + 1) * stride])
                })
                .then(a.cmp(&b))
        });
        let mut hashes = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n * stride);
        let mut ids = Vec::with_capacity(n);
        for &rel in &order {
            let rel = rel as usize;
            hashes.push(row_hashes[rel]);
            keys.extend_from_slice(&flat[rel * stride..(rel + 1) * stride]);
            ids.push((start + rel) as u32);
        }
        let bloom = Bloom::build(hashes.iter().copied(), n);
        self.runs.push(IndexRun {
            start: start as u32,
            end: end as u32,
            hashes,
            keys,
            ids,
            bloom,
        });
        self.tail.clear();
        self.collided.clear();
    }

    /// Merge the last two runs (kept in lockstep with the dedup runs):
    /// one linear pass over the stored hashes and materialized keys, no
    /// row access and no rehashing. Ties keep the left run's entries
    /// first — their ids are always smaller.
    pub fn merge_last_two(&mut self, cols: &[usize]) {
        let stride = cols.len();
        let right = self.runs.pop().expect("merge without runs");
        let left = self.runs.pop().expect("merge without a second run");
        let n = left.ids.len() + right.ids.len();
        let mut hashes = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n * stride);
        let mut ids = Vec::with_capacity(n);
        let (mut i, mut j) = (0, 0);
        while i < left.ids.len() && j < right.ids.len() {
            let take_left = match left.hashes[i].cmp(&right.hashes[j]) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => left.key_at(stride, i) <= right.key_at(stride, j),
            };
            if take_left {
                hashes.push(left.hashes[i]);
                keys.extend_from_slice(left.key_at(stride, i));
                ids.push(left.ids[i]);
                i += 1;
            } else {
                hashes.push(right.hashes[j]);
                keys.extend_from_slice(right.key_at(stride, j));
                ids.push(right.ids[j]);
                j += 1;
            }
        }
        hashes.extend_from_slice(&left.hashes[i..]);
        keys.extend_from_slice(&left.keys[i * stride..]);
        ids.extend_from_slice(&left.ids[i..]);
        hashes.extend_from_slice(&right.hashes[j..]);
        keys.extend_from_slice(&right.keys[j * stride..]);
        ids.extend_from_slice(&right.ids[j..]);
        let bloom = Bloom::build(hashes.iter().copied(), n);
        self.runs.push(IndexRun {
            start: left.start,
            end: right.end,
            hashes,
            keys,
            ids,
            bloom,
        });
    }

    /// Number of sealed runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Merge every sealed run into one (idle/maintenance compaction,
    /// kept in lockstep with [`TupleRuns::consolidate`]).
    pub fn consolidate(&mut self, cols: &[usize]) {
        while self.runs.len() > 1 {
            self.merge_last_two(cols);
        }
    }

    /// Ids in `[start, end)` whose projection onto `cols` equals `key`,
    /// pushed into `out` as per-run group slices (run order, then tail) —
    /// ascending overall because runs cover disjoint ascending id ranges.
    /// `rows` is read only to check the tail's first posting for `key`'s
    /// hash.
    pub fn probe<'a>(
        &'a self,
        rows: &Rows,
        cols: &[usize],
        key: &[Value],
        start: usize,
        end: usize,
        out: &mut ProbeHits<'a>,
    ) {
        if self.runs.is_empty() && self.tail.is_empty() {
            return;
        }
        self.probe_hashed(
            rows,
            cols,
            key,
            hash_key(key.iter().copied()),
            start,
            end,
            out,
        );
    }

    /// [`IndexRuns::probe`] with the key's hash `h` given.
    #[allow(clippy::too_many_arguments)]
    fn probe_hashed<'a>(
        &'a self,
        rows: &Rows,
        cols: &[usize],
        key: &[Value],
        h: u64,
        start: usize,
        end: usize,
        out: &mut ProbeHits<'a>,
    ) {
        if !self.runs.is_empty() {
            let (mut probes, mut skips) = (0u64, 0u64);
            for run in &self.runs {
                if run.end as usize <= start {
                    continue;
                }
                if run.start as usize >= end {
                    break;
                }
                probes += 1;
                if !run.bloom.may_contain(h) {
                    skips += 1;
                    continue;
                }
                let group = run.group(key, h);
                let a = group.partition_point(|&id| (id as usize) < start);
                let b = group.partition_point(|&id| (id as usize) < end);
                out.push(&group[a..b]);
            }
            if probes != 0 {
                BLOOM_PROBES.fetch_add(probes, Ordering::Relaxed);
            }
            if skips != 0 {
                BLOOM_SKIPS.fetch_add(skips, Ordering::Relaxed);
            }
        }
        // A key's tail ids are all in `tail` or all in `collided`.
        let matches = |ids: &&Vec<u32>| {
            let first = rows.row(ids[0] as usize);
            cols.iter().zip(key).all(|(&c, k)| first[c] == *k)
        };
        let postings = match self.tail.get(&h).filter(matches) {
            Some(ids) => Some(ids),
            None if !self.collided.is_empty() => self.collided.get(key),
            None => None,
        };
        if let Some(postings) = postings {
            let a = postings.partition_point(|&id| (id as usize) < start);
            let b = postings.partition_point(|&id| (id as usize) < end);
            out.push(&postings[a..b]);
        }
    }

    /// Estimated heap footprint: run hash/key/id arrays + blooms + tail
    /// postings.
    pub fn bytes_estimate(&self) -> usize {
        let runs: usize = self
            .runs
            .iter()
            .map(|r| {
                r.ids.len() * 12 + r.keys.len() * std::mem::size_of::<Value>() + r.bloom.bytes()
            })
            .sum();
        let tail: usize = self.tail.values().map(|v| 8 + 24 + v.len() * 4).sum();
        let collided: usize = self
            .collided
            .iter()
            .map(|(k, v)| 16 + k.len() * std::mem::size_of::<Value>() + 24 + v.len() * 4)
            .sum();
        runs + tail + collided
    }
}

// ---------------------------------------------------------------------------
// Read index
// ---------------------------------------------------------------------------

/// A single-column index for answer extraction: the ids of rows
/// `[0, covered)` sorted by `(row[col], id)` and nothing else — 4 bytes a
/// row. Keys are read through the row store, so a probe is a binary search
/// with one dependent load per step; that is the price of not materializing
/// a second copy of the column in a form that every resident relation would
/// hold privately. Rows past `covered` are the reader's to filter; the
/// owning relation folds them in at a seal once [`TAIL_LIMIT`] of them have
/// gathered (see [`crate::relation::Relation::seal`]).
#[derive(Debug, Clone)]
pub struct ReadIndex {
    ids: Vec<u32>,
}

impl ReadIndex {
    /// Index every row of `rows` on column `col`. The sort runs over flat
    /// `(Value, u32)` pairs — comparing through `rows[id][col]` instead
    /// costs two dependent loads per comparison and was measured at several
    /// times the build time.
    pub fn build(rows: &Rows, col: usize) -> ReadIndex {
        ReadIndex {
            ids: sorted_pairs(rows, col, 0)
                .into_iter()
                .map(|(_, id)| id)
                .collect(),
        }
    }

    /// Rows `[0, covered)` are indexed.
    pub fn covered(&self) -> usize {
        self.ids.len()
    }

    /// Fold rows `[covered, rows.len())` in: each new id is binary-searched
    /// to its place (new ids are larger than every covered id, so it goes
    /// after its key's group) and the old ids are copied across in
    /// segments — the covered keys are never re-read wholesale.
    pub fn extend_to(&mut self, rows: &Rows, col: usize) {
        let fresh = sorted_pairs(rows, col, self.ids.len());
        if fresh.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.ids);
        let mut ids = Vec::with_capacity(rows.len());
        let mut copied = 0;
        for (key, id) in fresh {
            let at = copied + old[copied..].partition_point(|&o| rows.row(o as usize)[col] <= key);
            ids.extend_from_slice(&old[copied..at]);
            ids.push(id);
            copied = at;
        }
        ids.extend_from_slice(&old[copied..]);
        self.ids = ids;
    }

    /// Ids of the covered rows whose column `col` equals `key`, ascending.
    pub fn group(&self, rows: &Rows, col: usize, key: Value) -> &[u32] {
        let lo = self
            .ids
            .partition_point(|&id| rows.row(id as usize)[col] < key);
        let len = self.ids[lo..].partition_point(|&id| rows.row(id as usize)[col] == key);
        &self.ids[lo..lo + len]
    }

    /// Heap footprint: the id array.
    pub fn bytes(&self) -> usize {
        self.ids.len() * 4
    }
}

/// `(row[col], id)` for rows `[from, rows.len())`, sorted.
fn sorted_pairs(rows: &Rows, col: usize, from: usize) -> Vec<(Value, u32)> {
    let mut pairs: Vec<(Value, u32)> = (from..rows.len())
        .map(|id| (rows.row(id)[col], id as u32))
        .collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn rowset(tuples: &[&[i64]]) -> Rows {
        let mut rows = Rows::new(tuples.first().map_or(0, |t| t.len()));
        for t in tuples {
            rows.push(&t.iter().map(|&v| Value::int(v)).collect::<Vec<_>>());
        }
        rows
    }

    fn h(tuple: &[Value]) -> u64 {
        hash_key(tuple.iter().copied())
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let hashes: Vec<u64> = (0..500u64)
            .map(|i| hash_key([Value::int(i as i64)].into_iter()))
            .collect();
        let bloom = Bloom::build(hashes.iter().copied(), hashes.len());
        for h in &hashes {
            assert!(bloom.may_contain(*h));
        }
        // And it does reject most strangers (not a correctness property,
        // but a sanity check that the filter is not degenerate).
        let misses = (1000..2000u64)
            .filter(|&i| !bloom.may_contain(hash_key([Value::int(i as i64)].into_iter())))
            .count();
        assert!(misses > 800, "bloom rejects only {misses}/1000 strangers");
    }

    #[test]
    fn fast_hash_is_deterministic_and_spreads() {
        let a = hash_key([Value::int(1), Value::sym("x")].into_iter());
        let b = hash_key([Value::int(1), Value::sym("x")].into_iter());
        assert_eq!(a, b);
        // Distinct low-entropy inputs land on distinct hashes.
        let hashes: HashSet<u64> = (0..10_000i64)
            .map(|i| hash_key([Value::int(i)].into_iter()))
            .collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn probe_hits_spill_past_inline_capacity() {
        let segs: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i * 2, i * 2 + 1]).collect();
        let mut hits = ProbeHits::new();
        for seg in &segs {
            hits.push(seg);
        }
        assert_eq!(hits.len(), 24);
        assert_eq!(hits.to_vec(), (0..24).collect::<Vec<u32>>());
    }

    #[test]
    fn tuple_runs_dedup_across_seal_and_merge() {
        let rows = rowset(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8], &[9, 10]]);
        let mut runs = TupleRuns::default();
        for id in 0..2 {
            runs.note_insert(h(rows.row(id)), id as u32);
        }
        runs.seal_to(&rows, 2);
        for id in 2..5 {
            runs.note_insert(h(rows.row(id)), id as u32);
        }
        assert!(
            runs.contains(&rows, rows.row(3), h(rows.row(3))),
            "in the tail"
        );
        runs.seal_to(&rows, 5);
        assert!(runs.wants_merge());
        runs.merge_last_two();
        assert_eq!(runs.run_count(), 1);
        for row in rows.range(0, 5) {
            assert!(runs.contains(&rows, row, h(row)));
        }
        let absent = rowset(&[&[2, 1]]);
        assert!(!runs.contains(&rows, absent.row(0), h(absent.row(0))));
    }

    #[test]
    fn tail_rows_sharing_a_hash_are_told_apart_by_their_values() {
        // Every row is noted under one hash: the tail keeps the first in
        // its map and the rest beside it, and a lookup checks them all.
        let rows = rowset(&[&[1, 2], &[3, 4], &[5, 6]]);
        let mut runs = TupleRuns::default();
        for id in 0..3 {
            runs.note_insert(7, id);
        }
        assert_eq!(runs.tail_len(), 3);
        for row in rows.range(0, 3) {
            assert!(runs.contains(&rows, row, 7));
        }
        assert!(!runs.contains(&rows, rowset(&[&[1, 4]]).row(0), 7));
        // The same for an index tail: three keys, one hash.
        let rows = rowset(&[&[1, 0], &[2, 1], &[1, 2], &[3, 3], &[2, 4]]);
        let mut idx = IndexRuns::default();
        for id in 0..5 {
            idx.tail_insert_hashed(&rows, &[0], id, 7);
        }
        for (key, want) in [(1, vec![0, 2]), (2, vec![1, 4]), (3, vec![3]), (4, vec![])] {
            let mut hits = ProbeHits::new();
            idx.probe_hashed(&rows, &[0], &[Value::int(key)], 7, 0, 5, &mut hits);
            assert_eq!(hits.to_vec(), want, "key {key}");
        }
    }

    #[test]
    fn dedup_verifies_tuples_behind_hash_matches() {
        // Membership must verify the actual tuple behind a hash match:
        // absent tuples answer false even when the bloom says "maybe".
        let mut rows = Rows::new(2);
        for i in 0..2000i64 {
            rows.push(&[Value::int(i), Value::int(i * 3)]);
        }
        let mut runs = TupleRuns::default();
        runs.seal_to(&rows, rows.len());
        for (i, row) in rows.range(0, rows.len()).enumerate() {
            assert!(runs.contains(&rows, row, h(row)), "row {i} lost");
            let absent = [row[0], Value::int(-1)];
            assert!(!runs.contains(&rows, &absent, h(&absent)));
        }
    }

    #[test]
    fn index_runs_probe_matches_linear_scan() {
        // Rows with key = i % 3 in column 0.
        let tuples: Vec<Vec<i64>> = (0..50i64).map(|i| vec![i % 3, i]).collect();
        let mut rows = Rows::new(2);
        for t in &tuples {
            rows.push(&t.iter().map(|&v| Value::int(v)).collect::<Vec<_>>());
        }
        let cols = [0usize];
        let mut idx = IndexRuns::default();
        idx.seal_range(&rows, &cols, 0, 20);
        idx.seal_range(&rows, &cols, 20, 35);
        idx.merge_last_two(&cols);
        for id in 35..50 {
            idx.tail_insert(&rows, &cols, id);
        }
        for key in 0..3i64 {
            for (start, end) in [(0, 50), (5, 40), (17, 23), (35, 50), (40, 40)] {
                let mut hits = ProbeHits::new();
                idx.probe(&rows, &cols, &[Value::int(key)], start, end, &mut hits);
                let expect: Vec<u32> = (start..end)
                    .filter(|&i| tuples[i][0] == key)
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(hits.to_vec(), expect, "key {key} range {start}..{end}");
            }
        }
    }
}
