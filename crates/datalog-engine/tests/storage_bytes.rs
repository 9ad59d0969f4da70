//! Storage bytes, counted. A counting global allocator sees every heap byte
//! a `Relation` holds; `Relation::overhead_bytes_estimate` — the number
//! behind `storage.overhead_bytes_per_fact` — must agree with it to within
//! 10 %, and each shape's bytes a row beside the row store are capped, so
//! that storage cannot grow fatter unnoticed. One shape counts the row
//! store too: a value is one 8-byte cell, so the rows of a sorted load
//! hold 8 B per cell of their store's capacity, and its dedup, once built,
//! stays under the dedup cap beside them.
//!
//! The file holds one test: the allocator counts per thread, and nothing
//! else runs on the test's thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalog_ast::Value;
use datalog_engine::Relation;

struct Counting;

thread_local! {
    /// Heap bytes this thread holds (allocated minus freed).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // Outside a thread's lifetime (its locals being torn down) nothing is
    // measured, so a miss there is harmless.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Bytes a row beside the row store for `rows` inserted into a relation
/// with a planned index over `index`, if any: `(counted, estimated)`.
fn per_row(rows: &[Vec<Value>], index: Option<&[usize]>) -> (f64, f64) {
    let start = live();
    let mut rel = Relation::new(rows[0].len());
    if let Some(cols) = index {
        rel.ensure_index(cols);
    }
    for row in rows {
        assert!(rel.insert(row));
    }
    let held = live() - start;
    // The row store alone: one flat vector, grown the same way.
    let start = live();
    let mut vals: Vec<Value> = Vec::new();
    for row in rows {
        vals.extend_from_slice(row);
    }
    let row_store = live() - start;
    drop(vals);
    let n = rows.len() as f64;
    (
        (held - row_store) as f64 / n,
        rel.overhead_bytes_estimate() as f64 / n,
    )
}

/// Bytes a sorted load of `rows` holds: `(rows only, rows and dedup,
/// capacity of the row store in cells)`. The load builds no dedup; a
/// membership test then builds it.
fn loaded(rows: &[Vec<Value>]) -> (usize, usize, usize) {
    let start = live();
    let mut rel = Relation::new(rows[0].len());
    assert_eq!(rel.load_batch(rows.iter().map(Vec::as_slice)), rows.len());
    // The relation's per-column read slots, held from `new` on.
    let slots = rel.overhead_bytes_estimate() as isize;
    let bare = live() - start - slots;
    assert!(rel.contains(&rows[0]));
    let with_dedup = live() - start - slots;
    // A flat vector grown the way the row store grows: its capacity.
    let mut vals: Vec<Value> = Vec::new();
    for row in rows {
        vals.extend_from_slice(row);
    }
    (bare as usize, with_dedup as usize, vals.capacity())
}

fn ints(pairs: impl Iterator<Item = (i64, i64)>) -> Vec<Vec<Value>> {
    pairs
        .map(|(a, b)| vec![Value::int(a), Value::int(b)])
        .collect()
}

#[test]
fn the_estimate_matches_counted_bytes_and_each_shape_stays_under_its_cap() {
    // Draw the process's hash seed before anything is counted.
    Relation::new(1).insert(&[Value::int(0)]);
    let n = 20_000;
    let shapes = [
        // A chain: every key of the index is unique.
        (
            "unique keys",
            ints((0..n).map(|i| (i, i + 1))),
            Some(&[0][..]),
            30.0,
        ),
        // A 4-ary tree: four rows a key.
        (
            "4-row groups",
            ints((0..n).map(|i| (i / 4, i))),
            Some(&[0][..]),
            34.0,
        ),
        // No planned index: dedup only.
        ("dedup only", ints((0..n).map(|i| (i, 7 * i))), None, 15.0),
    ];
    for (shape, rows, index, cap) in shapes {
        let (counted, estimated) = per_row(&rows, index);
        assert!(
            (estimated - counted).abs() <= 0.1 * counted,
            "{shape}: estimated {estimated:.1} B/row, counted {counted:.1}"
        );
        assert!(
            counted <= cap,
            "{shape}: {counted:.1} B/row beside the rows, cap {cap}"
        );
    }
    // A sorted load: the row store and the dedup, counted together.
    let rows = ints((0..n).map(|i| (i, 7 * i)));
    let (bare, with_dedup, cells) = loaded(&rows);
    assert_eq!(
        bare,
        8 * cells,
        "the row store holds 8 B per cell of capacity"
    );
    let dedup = (with_dedup - bare) as f64 / n as f64;
    assert!(
        dedup <= 15.0,
        "sorted load: {dedup:.1} B/row of dedup, cap 15"
    );
}
