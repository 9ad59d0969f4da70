//! Global interning: symbols, and the ints too wide for a value's cell.
//!
//! Symbols are process-global: two [`Symbol`]s are equal iff their underlying
//! strings are equal, regardless of which program or database they came from.
//! This keeps every AST node and engine tuple `Copy`-cheap and makes hashing
//! a single `u32` hash. The table only grows; for a query optimizer working
//! over programs with a few hundred identifiers this is the right trade.
//!
//! A [`crate::Value`] is one 8-byte cell that holds an int in [−2^61, 2^61)
//! inline. An `i64` outside that range is *wide*: it is interned here once,
//! in a second process-global, append-only table, and its value's cell holds
//! its index. One table entry per distinct wide int keeps every value's cell
//! canonical, so equal values have equal cells.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{OnceLock, RwLock};

/// An interned string. Cheap to copy, hash and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// An append-only table holding each distinct key once: each key's index,
/// and each index's key.
#[derive(Default)]
struct Table<K> {
    map: HashMap<K, u32>,
    keys: Vec<K>,
}

/// Intern `key` in `table`, returning its index.
fn intern_in<K, Q>(table: &RwLock<Table<K>>, key: &Q) -> u32
where
    K: Borrow<Q> + Hash + Eq,
    Q: ?Sized + Hash + Eq + ToOwned<Owned = K>,
{
    if let Some(&id) = table.read().expect("interner poisoned").map.get(key) {
        return id;
    }
    let mut guard = table.write().expect("interner poisoned");
    if let Some(&id) = guard.map.get(key) {
        return id;
    }
    let id = u32::try_from(guard.keys.len()).expect("fewer than 2^32 interned keys");
    guard.keys.push(key.to_owned());
    guard.map.insert(key.to_owned(), id);
    id
}

static INTERNER: OnceLock<RwLock<Table<String>>> = OnceLock::new();

fn interner() -> &'static RwLock<Table<String>> {
    INTERNER.get_or_init(RwLock::default)
}

impl Symbol {
    /// Intern `s`, returning its symbol.
    pub fn intern(s: &str) -> Symbol {
        Symbol(intern_in(interner(), s))
    }

    /// The interned string, cloned out of the table.
    pub fn as_str(&self) -> String {
        self.with_str(str::to_owned)
    }

    /// Run `f` on the interned string in place, under the interner's read
    /// lock — no allocation. `f` must not intern (the lock is not
    /// reentrant for writers).
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        f(&interner().read().expect("interner poisoned").keys[self.0 as usize])
    }

    /// Raw id; stable within a process run. Useful for dense tables.
    pub fn id(&self) -> u32 {
        self.0
    }

    /// The symbol with raw id `id`, which an earlier [`Symbol::id`] gave.
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }

    /// Number of strings interned so far in this process. The table only
    /// grows, so this is also its size.
    pub fn interned_count() -> usize {
        interner().read().expect("interner poisoned").keys.len()
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

static WIDE_INTS: OnceLock<RwLock<Table<i64>>> = OnceLock::new();

fn wide_ints() -> &'static RwLock<Table<i64>> {
    WIDE_INTS.get_or_init(RwLock::default)
}

/// Intern the wide int `i`, returning its index.
pub(crate) fn intern_wide(i: i64) -> u32 {
    intern_in(wide_ints(), &i)
}

/// The wide int with index `id`, which [`intern_wide`] gave.
pub(crate) fn wide_int(id: u32) -> i64 {
    wide_ints().read().expect("interner poisoned").keys[id as usize]
}

/// Generate a fresh symbol with the given prefix that is guaranteed not to
/// collide with any symbol interned so far.
///
/// Used for Sagiv-style freezing (skolem constants), fresh variables for
/// wildcards, and generated predicate names (`B1`, `B2`, ... in §3.1 of the
/// paper).
pub fn fresh_symbol(prefix: &str) -> Symbol {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let candidate = format!("{prefix}{n}");
        let already = {
            let guard = interner().read().expect("interner poisoned");
            guard.map.contains_key(&candidate)
        };
        if !already {
            return Symbol::intern(&candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        let c = Symbol::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn display_matches_str() {
        let a = Symbol::intern("pred_name");
        assert_eq!(format!("{a}"), "pred_name");
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = fresh_symbol("$t");
        let b = fresh_symbol("$t");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("$t"));
    }

    #[test]
    fn with_str_borrows_the_interned_string() {
        let a = Symbol::intern("borrowed_name");
        assert_eq!(a.with_str(str::len), "borrowed_name".len());
        assert!(a.with_str(|s| s.starts_with("borrowed")));
        assert_eq!(a.with_str(str::to_owned), a.as_str());
    }

    #[test]
    fn fresh_symbol_avoids_existing() {
        // Pre-intern a name the counter would produce; fresh_symbol must skip it.
        let pre = Symbol::intern("$skip0");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5 {
            let s = fresh_symbol("$skip");
            assert_ne!(s, pre);
            assert!(seen.insert(s), "fresh symbol repeated");
        }
    }
}
