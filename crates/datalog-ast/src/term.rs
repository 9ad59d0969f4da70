//! Terms of function-free Datalog: variables and constants.

use crate::intern::{fresh_symbol, intern_wide, wide_int, Symbol};

/// A constant value: one 8-byte cell. Function-free Datalog only has
/// atomic constants; we support every `i64` and interned symbolic
/// constants.
///
/// The cell's layout:
/// - below 2^62, an *inline* int `i`, stored as `i + 2^61` for `i` in
///   [−2^61, 2^61);
/// - in [2^62, 2^63), a *wide* int: the index of its entry in a
///   process-wide, append-only table that holds each such `i64` once (see
///   [`crate::intern`]);
/// - from 2^63 up, a symbol, its id in the low 32 bits.
///
/// Every value has exactly one cell, so `Eq` and `Hash` are the cell's.
/// `Ord` is that of [`Kind`]: ints before symbols, ints by value, symbols
/// by id. The raw cells already order that way unless one of the two is
/// a wide int, which is the only case that decodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value(u64);

// One column of one row costs one word.
const _: () = assert!(std::mem::size_of::<Value>() == 8);

/// A [`Value`], decoded: what it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Integer constant, e.g. `42`.
    Int(i64),
    /// Symbolic constant, e.g. `alice`. Also used for the skolem constants
    /// introduced by freezing (see [`crate::subst::freeze_rule`]).
    Sym(Symbol),
}

/// An inline int's offset: `i + BIAS` maps [−2^61, 2^61) onto [0, 2^62).
const BIAS: u64 = 1 << 61;
/// The tag bit of a wide int's cell.
const WIDE: u64 = 1 << 62;
/// The tag bit of a symbol's cell.
const SYM: u64 = 1 << 63;

impl Value {
    /// Symbolic constant from a string.
    pub fn sym(s: &str) -> Value {
        Value::from(Symbol::intern(s))
    }

    /// Integer constant.
    pub fn int(i: i64) -> Value {
        let cell = (i as u64).wrapping_add(BIAS);
        if cell < WIDE {
            Value(cell)
        } else {
            Value(WIDE | u64::from(intern_wide(i)))
        }
    }

    /// What this value holds.
    pub fn kind(self) -> Kind {
        if self.0 < WIDE {
            Kind::Int(self.0.wrapping_sub(BIAS) as i64)
        } else if self.0 < SYM {
            Kind::Int(wide_int(self.0 as u32))
        } else {
            Kind::Sym(Symbol::from_id(self.0 as u32))
        }
    }

    /// A fresh skolem constant, distinct from all interned symbols.
    pub fn fresh_skolem() -> Value {
        Value::from(fresh_symbol("$c"))
    }

    /// True if this is a skolem constant produced by [`Value::fresh_skolem`].
    pub fn is_skolem(&self) -> bool {
        match self.kind() {
            Kind::Sym(s) => s.with_str(|s| s.starts_with("$c")),
            Kind::Int(_) => false,
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        if (self.0 | other.0) & WIDE == 0 {
            self.0.cmp(&other.0)
        } else {
            self.kind().cmp(&other.kind())
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind() {
            Kind::Int(i) => write!(f, "{i}"),
            Kind::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value(SYM | u64::from(s.id()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::sym(s)
    }
}

/// A variable, identified by its (interned) name.
///
/// Variables are rule-scoped: the same name in two rules denotes two
/// unrelated variables. Wildcards (`_` in the text format) are expanded by
/// the parser into variables named `$_N`, distinct within their statement,
/// so by the time an AST exists every variable is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Symbol);

impl Var {
    /// Variable with the given name.
    pub fn new(name: &str) -> Var {
        Var(Symbol::intern(name))
    }

    /// A fresh variable guaranteed not to collide with any existing name.
    pub fn fresh() -> Var {
        Var(fresh_symbol("$v"))
    }

    /// A fresh variable rendered as an anonymous wildcard.
    pub fn fresh_wildcard() -> Var {
        Var(fresh_symbol("$_"))
    }

    /// The `n`th wildcard of a statement, `$_n`. Variables are rule-scoped,
    /// so the parser numbers each statement's wildcards from zero: parsing
    /// interns no new name for a wildcard once a statement with that many
    /// has been read, where [`Var::fresh_wildcard`] interns one per call.
    pub fn wildcard(n: usize) -> Var {
        Var::new(&format!("$_{n}"))
    }

    /// Whether this variable came from a `_` wildcard.
    pub fn is_wildcard(&self) -> bool {
        self.0.with_str(|s| s.starts_with("$_"))
    }

    /// The variable's name.
    pub fn name(&self) -> String {
        self.0.as_str()
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_wildcard() {
            write!(f, "_")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A term: variable or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// Symbolic constant term.
    pub fn sym(name: &str) -> Term {
        Term::Const(Value::sym(name))
    }

    /// Integer constant term.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::int(i))
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        }
    }

    /// Whether this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

/// Whether `text` lexes back as one lower-case identifier — the only
/// symbol text a term may print unquoted.
fn is_plain_ident(text: &str) -> bool {
    let mut bytes = text.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_lowercase())
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// A term renders as source text that parses back to the same term: a
/// symbol constant is quoted unless it is a plain lower-case identifier
/// (`"Alice"` would otherwise read back as a variable, `"42"` as an
/// integer, `"a b"` not at all). [`Value`]'s own rendering stays raw —
/// it is what answers print.
impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => match c.kind() {
                Kind::Sym(s) => s.with_str(|text| {
                    if is_plain_ident(text) {
                        f.write_str(text)
                    } else {
                        write!(f, "\"{text}\"")
                    }
                }),
                Kind::Int(i) => write!(f, "{i}"),
            },
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Term {
        Term::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_display() {
        assert_eq!(Value::int(7).to_string(), "7");
        assert_eq!(Value::sym("abc").to_string(), "abc");
        assert_eq!(Value::int(-3).to_string(), "-3");
    }

    #[test]
    fn symbol_terms_quote_unless_a_plain_identifier() {
        for (text, shown) in [
            ("bob", "bob"),
            ("x_1", "x_1"),
            ("Alice", "\"Alice\""),
            ("a b", "\"a b\""),
            ("42", "\"42\""),
            ("_x", "\"_x\""),
            ("café", "\"café\""),
            ("", "\"\""),
        ] {
            assert_eq!(Term::sym(text).to_string(), shown);
            // An answer cell prints the value itself.
            assert_eq!(Value::sym(text).to_string(), text);
        }
        assert_eq!(Term::int(-3).to_string(), "-3");
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("X");
        let c = Term::int(1);
        assert!(v.is_var());
        assert!(!c.is_var());
        assert_eq!(v.as_var(), Some(Var::new("X")));
        assert_eq!(v.as_const(), None);
        assert_eq!(c.as_const(), Some(Value::int(1)));
        assert_eq!(c.as_var(), None);
    }

    #[test]
    fn wildcards_render_anonymously() {
        let w = Var::fresh_wildcard();
        assert!(w.is_wildcard());
        assert_eq!(w.to_string(), "_");
        let x = Var::new("X");
        assert!(!x.is_wildcard());
        assert_eq!(x.to_string(), "X");
    }

    #[test]
    fn skolems_are_recognizable() {
        let s = Value::fresh_skolem();
        assert!(s.is_skolem());
        assert!(!Value::sym("ordinary").is_skolem());
        assert!(!Value::int(0).is_skolem());
    }

    #[test]
    fn value_ordering_is_total() {
        let mut vs = [
            Value::sym("b"),
            Value::int(2),
            Value::sym("a"),
            Value::int(1),
        ];
        vs.sort();
        // Ints sort before syms (enum order), each group internally ordered.
        assert_eq!(vs[0], Value::int(1));
        assert_eq!(vs[1], Value::int(2));
    }
}
