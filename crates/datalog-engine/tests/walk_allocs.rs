//! Allocations, counted. A counting global allocator sees every heap
//! allocation an evaluation makes; the join walk must make none per row it
//! scans or per index probe, so a whole transitive-closure fixpoint —
//! load, compile, every iteration's walk and merge — stays far below one
//! allocation per fifty scanned rows. A walk that allocates a binding list
//! per row or a key per probe makes more than one per row.
//!
//! The file holds one test: the allocator counts per thread, and nothing
//! else runs on the test's thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalog_ast::{parse_program, PredRef, Value};
use datalog_engine::{evaluate, EvalOptions, FactSet};

struct Counting;

thread_local! {
    /// Allocations this thread made (reallocations included).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Outside a thread's lifetime (its locals being torn down) nothing is
    // measured, so a miss there is harmless.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_transitive_closure_walk_allocates_nothing_per_row() {
    let program = parse_program(
        "a(X, Y) :- p(X, Z), a(Z, Y).\n\
         a(X, Y) :- p(X, Y).\n\
         ?- a(X, Y).",
    )
    .unwrap()
    .program;
    let n = 2_000;
    let mut edb = FactSet::new();
    for i in 0..n {
        edb.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
    }
    let opts = EvalOptions::default();
    let before = allocs();
    let out = evaluate(&program, &edb, &opts).unwrap();
    let made = allocs() - before;
    let stats = out.stats;
    assert_eq!(stats.facts_derived, (n * (n + 1) / 2) as u64);
    assert!(
        made < stats.tuples_scanned / 50,
        "{made} allocations for {} scanned rows and {} probes",
        stats.tuples_scanned,
        stats.index_probes
    );
}
