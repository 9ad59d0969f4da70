//! Global string interning.
//!
//! Symbols are process-global: two [`Symbol`]s are equal iff their underlying
//! strings are equal, regardless of which program or database they came from.
//! This keeps every AST node and engine tuple `Copy`-cheap and makes hashing
//! a single `u32` hash. The table only grows; for a query optimizer working
//! over programs with a few hundred identifiers this is the right trade.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string. Cheap to copy, hash and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning its symbol.
    pub fn intern(s: &str) -> Symbol {
        {
            let guard = interner().read().expect("interner poisoned");
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().expect("interner poisoned");
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        let id = guard.strings.len() as u32;
        guard.strings.push(s.to_owned());
        guard.map.insert(s.to_owned(), id);
        Symbol(id)
    }

    /// The interned string, cloned out of the table.
    pub fn as_str(&self) -> String {
        self.with_str(str::to_owned)
    }

    /// Run `f` on the interned string in place, under the interner's read
    /// lock — no allocation. `f` must not intern (the lock is not
    /// reentrant for writers).
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        f(&interner().read().expect("interner poisoned").strings[self.0 as usize])
    }

    /// Raw id; stable within a process run. Useful for dense tables.
    pub fn id(&self) -> u32 {
        self.0
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
