//! Parser bytes, counted. A counting global allocator sees every heap byte
//! `parse_program` takes; parsing 100 000 facts of the form `p(i, i+1).`
//! must peak below twice what the input and its output need at least: the
//! text, the facts' values as flat rows, and one `(line, col)` span per
//! fact. A parser that builds a token list, or a vector per fact, peaks
//! several times higher.
//!
//! The file holds one test: the allocator counts per thread, and nothing
//! else runs on the test's thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use datalog_ast::{parse_program, Value};

struct Counting;

thread_local! {
    /// Heap bytes this thread holds (allocated minus freed).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last `reset_peak`.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // Outside a thread's lifetime (its locals being torn down) nothing is
    // measured, so a miss there is harmless.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counting
// touches only const-initialized thread-local `Cell`s, which never
// allocate.
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

#[test]
fn parsing_facts_peaks_below_twice_text_rows_and_spans() {
    const FACTS: usize = 100_000;
    let text: String = (0..FACTS)
        .map(|i| format!("p({i}, {}).\n", i + 1))
        .collect();
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let parsed = parse_program(&text).expect("the facts parse");
    let peak = (PEAK.with(Cell::get) - start) as usize;
    let held = (LIVE.with(Cell::get) - start) as usize;
    drop(parsed);

    let rows = FACTS * 2 * size_of::<Value>();
    let spans = FACTS * 2 * size_of::<u32>();
    let budget = 2 * (text.len() + rows + spans);
    // The text is held before parsing starts, so the parse itself may take
    // the rest of the budget.
    assert!(
        text.len() + peak < budget,
        "parsing {FACTS} facts ({} text bytes) peaked at {peak} bytes, holding {held}; \
         budget {budget}",
        text.len()
    );
}
