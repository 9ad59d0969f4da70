//! `Value` is one 8-byte cell; these properties hold it to the two-variant
//! enum it replaced. A test-local copy of that enum, with its derived
//! `Ord`, is the reference: on random pairs drawn around both edges of the
//! inline range, from the wide ints beyond them and from symbols, `cmp`
//! and `==` must agree with the enum's, and equal values must hash alike.

use proptest::prelude::*;

use datalog_ast::{Kind, Symbol, Value};
use datalog_engine::storage::hash_key;

/// The enum `Value` was, with its derived order: ints before symbols, ints
/// by value, symbols by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Old {
    Int(i64),
    Sym(Symbol),
}

impl Old {
    fn value(self) -> Value {
        match self {
            Old::Int(i) => Value::int(i),
            Old::Sym(s) => Value::from(s),
        }
    }
}

const EDGE: i64 = 1 << 61;
const SYMBOLS: [&str; 6] = ["a", "b", "42", "", "zed", "$c0"];

/// One old value: an int within 8 of an inline-range edge, of an `i64`
/// bound or of zero; any `i64` (three in four are wide); or a symbol. The
/// small pools make equal pairs common.
fn old() -> impl Strategy<Value = Old> {
    (0..7u32, -8..8i64, i64::MIN..=i64::MAX, 0..SYMBOLS.len()).prop_map(|(pool, near, any, sym)| {
        match pool {
            0 => Old::Int(-EDGE + near),
            1 => Old::Int(EDGE + near),
            2 => Old::Int(i64::MIN.wrapping_add(near.abs())),
            3 => Old::Int(i64::MAX - near.abs()),
            4 => Old::Int(near),
            5 => Old::Int(any),
            _ => Old::Sym(Symbol::intern(SYMBOLS[sym])),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4096,
        ..ProptestConfig::default()
    })]

    /// `cmp`, `==` and `hash_key` over cells agree with the old enum.
    #[test]
    fn a_cell_orders_and_compares_like_the_old_enum(a in old(), b in old()) {
        let (x, y) = (a.value(), b.value());
        prop_assert_eq!(x.kind(), kind(a));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(x == y, a == b, "{:?} vs {:?}", a, b);
        if a == b {
            prop_assert_eq!(hash_key([x].into_iter()), hash_key([y].into_iter()));
        }
    }
}

fn kind(old: Old) -> Kind {
    match old {
        Old::Int(i) => Kind::Int(i),
        Old::Sym(s) => Kind::Sym(s),
    }
}

/// The boundary ints and the symbols, sorted as cells, come out in the old
/// order and print as before.
#[test]
fn the_range_edges_sort_like_the_old_enum() {
    let mut olds: Vec<Old> = [i64::MIN, i64::MAX, -EDGE - 1, -EDGE, EDGE - 1, EDGE, 0, -1]
        .into_iter()
        .map(Old::Int)
        .chain(SYMBOLS.iter().map(|s| Old::Sym(Symbol::intern(s))))
        .collect();
    let mut values: Vec<Value> = olds.iter().map(|o| o.value()).collect();
    olds.sort();
    values.sort();
    for (value, old) in values.iter().zip(olds) {
        assert_eq!(value.kind(), kind(old));
        let shown = match old {
            Old::Int(i) => i.to_string(),
            Old::Sym(s) => s.as_str(),
        };
        assert_eq!(value.to_string(), shown);
    }
}
