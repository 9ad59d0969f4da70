//! Keyed storage behind [`crate::relation::Relation`], the one tuple store.
//!
//! A relation's rows live in one [`Rows`] store: append-only, in insertion
//! order (that contract is what semi-naive delta ranges are built on), and
//! arity-strided in one flat `Vec<Value>`, so a row is a slice of it and
//! not an allocation of its own.
//!
//! Every question a relation asks of its rows — is this tuple stored
//! (dedup), which rows of `[start, end)` hold this key (a join probe),
//! which rows hold this value in this column (a point read) — is answered
//! by one structure, [`KeyIndex`]: the row ids grouped by their projection
//! onto a column set. It holds no second copy of a tuple, a key or a hash.
//! It is an open-addressed table of `u32` slots, each either one row id (a
//! one-row group) or, tagged, the index of a multi-row id vector; keys are
//! compared, and rehashed when the table grows, through the rows. Rows are
//! append-only, so a group's ids are ascending by construction: a delta
//! range's hits are one `partition_point` pair on one slice, and every
//! index covers every row the moment it is inserted.
//!
//! Slot positions come from [`hash_key`], seeded once per process, so a
//! client cannot pick keys that pile onto one position. Two keys whose full
//! hashes still tie never share the table: the later one goes to a small
//! map keyed by value, so even a forced tie costs a logarithmic lookup, not
//! a scan. Hashes are never stored, persisted or iterated into output.
//!
//! Late index builds and key lookups are counted in process-wide atomics
//! ([`storage_counters`]), so the server and the benchmark can read them
//! without threading handles through the evaluator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use datalog_ast::Value;

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

    /// Drop the last row.
    pub fn pop(&mut self) {
        debug_assert!(self.len > 0, "pop from no rows");
        self.len -= 1;
        self.vals.truncate(self.len * self.arity);
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

static LOOKUPS: AtomicU64 = AtomicU64::new(0);
static TURNED_AWAY: AtomicU64 = AtomicU64::new(0);
static INDEX_REBUILDS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide storage counters. The first two keep the
/// names of the bloom filters of sorted-run storage, whose job an empty
/// slot now does: the benchmark's `storage.bloom_skip_ratio` reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Key lookups ([`KeyIndex::get`]).
    pub bloom_probes: u64,
    /// Lookups that found their key's first slot empty: answered without
    /// reading a row.
    pub bloom_skips: u64,
    /// Indexes built over rows already stored, by a late
    /// [`crate::relation::Relation::ensure_index`].
    pub index_rebuilds: u64,
}

/// Read the process-wide storage counters (monotone).
pub fn storage_counters() -> StorageCounters {
    StorageCounters {
        bloom_probes: LOOKUPS.load(Ordering::Relaxed),
        bloom_skips: TURNED_AWAY.load(Ordering::Relaxed),
        index_rebuilds: INDEX_REBUILDS.load(Ordering::Relaxed),
    }
}

/// Count one index built over existing rows.
pub(crate) fn note_index_rebuild() {
    INDEX_REBUILDS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// A fast multiply-rotate hasher in the FxHash family. Its hashes only
/// place keys in in-memory tables (snapshots on disk store raw values), so
/// it trades SipHash's strength for a few nanoseconds per key; what keeps
/// a client from colliding keys on purpose is the per-process seed
/// [`hash_key`] starts from, and a tie that remains is resolved by value.
struct FastHasher(u64);

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
        // Final avalanche so the low bits (the slot position) carry
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

/// The hasher's starting state: random, drawn once per process.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::{BuildHasher, Hasher};
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    })
}

/// Fast 64-bit hash of a value sequence (see [`FastHasher`]), seeded once
/// per process: equal within a process, unrelated across processes.
pub fn hash_key(vals: impl Iterator<Item = Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FastHasher(seed());
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Key index
// ---------------------------------------------------------------------------

/// An empty slot.
const EMPTY: u32 = u32::MAX;
/// Tags a slot that holds the index of a multi-row group, not a row id.
const GROUP: u32 = 1 << 31;

/// The ids of a relation's rows grouped by their projection onto `cols`,
/// each group ascending (see the module docs). A `unique` index keeps one
/// id per key: it is the relation's duplicate elimination.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    cols: Box<[usize]>,
    unique: bool,
    /// Open-addressed, linear-probed, a power of two long (or empty): each
    /// slot is [`EMPTY`], a row id, or [`GROUP`] | an index into `groups`.
    slots: Vec<u32>,
    /// Keys held by `slots`.
    keys: usize,
    /// Groups of two rows or more.
    groups: Vec<Vec<u32>>,
    /// Keys whose hash a key in `slots` already has, by value.
    tied: BTreeMap<Box<[Value]>, Vec<u32>>,
    /// One hash for every key, so that tests reach `tied`.
    #[cfg(test)]
    forced_hash: Option<u64>,
}

impl KeyIndex {
    /// An empty index over the column set `cols`.
    pub fn new(cols: &[usize]) -> KeyIndex {
        KeyIndex {
            cols: cols.into(),
            unique: false,
            slots: Vec::new(),
            keys: 0,
            groups: Vec::new(),
            tied: BTreeMap::new(),
            #[cfg(test)]
            forced_hash: None,
        }
    }

    /// An empty duplicate eliminator over all `arity` columns: a key never
    /// gets a second id.
    pub fn unique(arity: usize) -> KeyIndex {
        KeyIndex {
            unique: true,
            ..KeyIndex::new(&(0..arity).collect::<Vec<_>>())
        }
    }

    /// An index over `cols` holding every row of `rows`.
    pub fn build(rows: &Rows, cols: &[usize]) -> KeyIndex {
        let mut index = KeyIndex::new(cols);
        for id in 0..rows.len() {
            index.insert(rows, id as u32);
        }
        index
    }

    /// The indexed column set.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Drop every id, keeping the column set.
    pub fn clear(&mut self) {
        *self = KeyIndex {
            cols: std::mem::take(&mut self.cols),
            unique: self.unique,
            ..KeyIndex::new(&[])
        };
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        let slots = self.slots.iter().filter(|&&s| s & GROUP == 0).count();
        let groups: usize = self.groups.iter().map(Vec::len).sum();
        let tied: usize = self.tied.values().map(Vec::len).sum();
        slots + groups + tied
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    fn hash(&self, key: impl Iterator<Item = Value>) -> u64 {
        #[cfg(test)]
        if let Some(h) = self.forced_hash {
            return h;
        }
        hash_key(key)
    }

    fn key_hash(&self, row: &[Value]) -> u64 {
        self.hash(self.cols.iter().map(|&c| row[c]))
    }

    /// The ids behind a non-empty slot.
    fn group<'a>(&'a self, slot: &'a u32) -> &'a [u32] {
        match *slot & GROUP {
            0 => std::slice::from_ref(slot),
            _ => &self.groups[(*slot & !GROUP) as usize],
        }
    }

    /// The ids of the rows whose projection is `key`, ascending.
    pub fn get(&self, rows: &Rows, key: &[Value]) -> &[u32] {
        LOOKUPS.fetch_add(1, Ordering::Relaxed);
        if self.slots.is_empty() {
            TURNED_AWAY.fetch_add(1, Ordering::Relaxed);
            return &[];
        }
        let h = self.hash(key.iter().copied());
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        if self.slots[i] == EMPTY {
            TURNED_AWAY.fetch_add(1, Ordering::Relaxed);
        }
        while self.slots[i] != EMPTY {
            let group = self.group(&self.slots[i]);
            let row = rows.row(group[0] as usize);
            if self.cols.iter().zip(key).all(|(&c, k)| row[c] == *k) {
                return group;
            }
            i = (i + 1) & mask;
        }
        // A tied key is never in `slots`: its partner there, on the path
        // just walked, has the same hash and another value.
        if self.tied.is_empty() {
            return &[];
        }
        self.tied.get(key).map_or(&[], Vec::as_slice)
    }

    /// Add row `id` of `rows` to its key's group. Returns `false`, adding
    /// nothing, when the index is unique and the key has an id already.
    pub fn insert(&mut self, rows: &Rows, id: u32) -> bool {
        assert!(id < GROUP, "row id {id} collides with the group tag");
        if (self.keys + 1) * 2 > self.slots.len() {
            self.grow(rows);
        }
        let row = rows.row(id as usize);
        let h = self.key_hash(row);
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                self.slots[i] = id;
                self.keys += 1;
                return true;
            }
            let other = rows.row(self.group(&slot)[0] as usize);
            if self.cols.iter().all(|&c| other[c] == row[c]) {
                return self.join(i, id);
            }
            if self.key_hash(other) == h {
                let key = self.cols.iter().map(|&c| row[c]).collect();
                let ids = self.tied.entry(key).or_default();
                if self.unique && !ids.is_empty() {
                    return false;
                }
                ids.push(id);
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Add `id` to the group in slot `i`, unless the index is unique.
    fn join(&mut self, i: usize, id: u32) -> bool {
        if self.unique {
            return false;
        }
        let slot = self.slots[i];
        if slot & GROUP == 0 {
            assert!(self.groups.len() < !GROUP as usize, "too many groups");
            self.slots[i] = GROUP | self.groups.len() as u32;
            self.groups.push(vec![slot, id]);
        } else {
            self.groups[(slot & !GROUP) as usize].push(id);
        }
        true
    }

    /// Double the table (eight slots at first) and re-place every key,
    /// rehashed through its group's first row.
    fn grow(&mut self, rows: &Rows) {
        let len = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let row = rows.row(self.group(&slot)[0] as usize);
            let mut i = self.key_hash(row) as usize & (len - 1);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// Heap bytes held, by capacity: the column set, the slots, the groups
    /// and (estimated per entry) the tied keys.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let groups: usize = self.groups.iter().map(|g| g.capacity() * 4).sum();
        let tied: usize = self
            .tied
            .iter()
            .map(|(key, ids)| {
                2 * size_of::<(Box<[Value]>, Vec<u32>)>()
                    + key.len() * size_of::<Value>()
                    + ids.capacity() * 4
            })
            .sum();
        self.cols.len() * size_of::<usize>()
            + self.slots.capacity() * 4
            + self.groups.capacity() * size_of::<Vec<u32>>()
            + groups
            + tied
    }
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
    fn dedup_verifies_tuples_behind_hash_matches() {
        // Every tuple is given one hash: membership must still tell them
        // apart by value, and the table must stay whole as it grows.
        for forced_hash in [Some(7), None] {
            let mut rows = Rows::new(2);
            let mut dedup = KeyIndex {
                forced_hash,
                ..KeyIndex::unique(2)
            };
            for i in 0..2000i64 {
                rows.push(&[Value::int(i), Value::int(i * 3)]);
                assert!(dedup.insert(&rows, i as u32));
                rows.push(&[Value::int(i), Value::int(i * 3)]);
                assert!(!dedup.insert(&rows, i as u32 + 1), "dup {i}");
                rows.pop();
            }
            assert_eq!(dedup.len(), 2000);
            assert_eq!(dedup.keys == 1, forced_hash.is_some());
            for (i, row) in rows.range(0, rows.len()).enumerate() {
                assert_eq!(dedup.get(&rows, row), [i as u32], "row {i}");
                let absent = [row[0], Value::int(-1)];
                assert!(dedup.get(&rows, &absent).is_empty());
            }
        }
    }

    #[test]
    fn tail_rows_sharing_a_hash_are_told_apart_by_their_values() {
        // Keys that all hash alike, for a one-column index (a read) and a
        // composite one (a join probe): each key keeps its own ascending
        // group.
        let tuples: Vec<Vec<i64>> = (0..300i64).map(|i| vec![i % 37, i % 5, i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(Vec::as_slice).collect();
        let rows = rowset(&refs);
        for cols in [&[0usize][..], &[0, 1]] {
            let mut index = KeyIndex {
                forced_hash: Some(7),
                ..KeyIndex::new(cols)
            };
            for id in 0..rows.len() {
                assert!(index.insert(&rows, id as u32));
            }
            assert_eq!(index.len(), rows.len());
            // One key holds the table; every other key is found by value.
            assert_eq!(index.keys, 1);
            for key in tuples
                .iter()
                .map(|t| &t[..cols.len()])
                .chain([&[99, 0][..]])
            {
                let want: Vec<u32> = (0..tuples.len())
                    .filter(|&i| tuples[i][..cols.len()] == key[..cols.len()])
                    .map(|i| i as u32)
                    .collect();
                let key: Vec<Value> = key[..cols.len()].iter().map(|&v| Value::int(v)).collect();
                assert_eq!(index.get(&rows, &key), want, "{cols:?} {key:?}");
            }
        }
    }

    #[test]
    fn index_runs_probe_matches_linear_scan() {
        // Rows with key = i % 3 in column 0, and unique keys in column 1.
        let tuples: Vec<Vec<i64>> = (0..500i64).map(|i| vec![i % 3, i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(Vec::as_slice).collect();
        let rows = rowset(&refs);
        for col in [0usize, 1] {
            // Half built over stored rows, half inserted afterwards.
            let mut index = KeyIndex::build(&rowset(&refs[..250]), &[col]);
            for id in 250..500 {
                index.insert(&rows, id);
            }
            for key in [0, 1, 2, 3, 250, 499, -1] {
                let expect: Vec<u32> = (0..tuples.len())
                    .filter(|&i| tuples[i][col] == key)
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(
                    index.get(&rows, &[Value::int(key)]),
                    expect,
                    "[{col}] {key}"
                );
            }
        }
    }
}
