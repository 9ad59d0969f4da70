//! Atoms: a predicate applied to a list of terms.

use crate::pred::PredRef;
use crate::term::{Term, Value, Var};

/// An atom `p(t1, ..., tk)`. With `k = 0` this is a propositional (boolean)
/// atom such as the `B` predicates introduced by the connected-component
/// rewriting of §3.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The (possibly adorned) predicate.
    pub pred: PredRef,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: PredRef, terms: Vec<Term>) -> Atom {
        Atom { pred, terms }
    }

    /// Convenience: unadorned predicate applied to variables named by
    /// `vars`, e.g. `Atom::app("p", &["X", "Y"])`.
    pub fn app(pred: &str, vars: &[&str]) -> Atom {
        Atom {
            pred: PredRef::new(pred),
            terms: vars.iter().map(|v| Term::var(v)).collect(),
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Whether the atom has no variables.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| !t.is_var())
    }

    /// All variables in order of occurrence (with repetitions).
    pub fn var_occurrences(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(|t| t.as_var())
    }

    /// The set of distinct variables, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        for v in self.var_occurrences() {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// If ground, the tuple of constant values.
    pub fn ground_values(&self) -> Option<Vec<Value>> {
        // Sized up front: a fact's tuple becomes a boxed row without a
        // reallocation.
        let mut values = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            values.push(t.as_const()?);
        }
        Some(values)
    }

    /// A ground atom (fact) from a predicate and values.
    pub fn fact(pred: PredRef, values: Vec<Value>) -> Atom {
        Atom {
            pred,
            terms: values.into_iter().map(Term::Const).collect(),
        }
    }

    /// Positions (indices) at which `v` occurs.
    pub fn positions_of(&self, v: Var) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (t.as_var() == Some(v)).then_some(i))
            .collect()
    }
}

/// `pred(t1, ..., tk)`, or `pred` alone when there are no terms.
fn write_atom(
    f: &mut std::fmt::Formatter<'_>,
    pred: &PredRef,
    terms: impl ExactSizeIterator<Item = Term>,
) -> std::fmt::Result {
    write!(f, "{pred}")?;
    if terms.len() > 0 {
        write!(f, "(")?;
        for (i, t) in terms.enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_atom(f, &self.pred, self.terms.iter().copied())
    }
}

/// A fact written as `Atom::fact(pred, values)` displays, without
/// building the atom.
pub struct FactDisplay<'a> {
    pub pred: &'a PredRef,
    pub values: &'a [Value],
}

impl std::fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_atom(f, self.pred, self.values.iter().map(|&v| Term::Const(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display() {
        let a = Atom::app("p", &["X", "Y"]);
        assert_eq!(a.to_string(), "p(X, Y)");
        let b = Atom::new(PredRef::new("b2"), vec![]);
        assert_eq!(b.to_string(), "b2");
        let c = Atom::new(
            PredRef::adorned("q", "nd"),
            vec![Term::var("X"), Term::int(3)],
        );
        assert_eq!(c.to_string(), "q[nd](X, 3)");
    }

    #[test]
    fn a_fact_displays_as_its_atom() {
        let pred = PredRef::adorned("q", "nd");
        for values in [
            vec![],
            vec![Value::int(-3), Value::sym("a b"), Value::sym("x")],
        ] {
            let shown = FactDisplay {
                pred: &pred,
                values: &values,
            };
            assert_eq!(
                shown.to_string(),
                Atom::fact(pred.clone(), values.clone()).to_string()
            );
        }
    }

    #[test]
    fn groundness() {
        let f = Atom::fact(PredRef::new("p"), vec![Value::int(1), Value::sym("a")]);
        assert!(f.is_ground());
        assert_eq!(
            f.ground_values(),
            Some(vec![Value::int(1), Value::sym("a")])
        );
        let a = Atom::app("p", &["X"]);
        assert!(!a.is_ground());
        assert_eq!(a.ground_values(), None);
    }

    #[test]
    fn var_collection_dedups_in_order() {
        let a = Atom::new(
            PredRef::new("p"),
            vec![Term::var("X"), Term::var("Y"), Term::var("X")],
        );
        assert_eq!(a.vars(), vec![Var::new("X"), Var::new("Y")]);
        assert_eq!(a.var_occurrences().count(), 3);
        assert_eq!(a.positions_of(Var::new("X")), vec![0, 2]);
        assert_eq!(a.positions_of(Var::new("Z")), Vec::<usize>::new());
    }
}
