//! # datalog-ast
//!
//! Abstract syntax, text format, and term-level algorithms for function-free
//! Horn-clause programs (Datalog), as used by the reproduction of
//! *Optimizing Existential Datalog Queries* (Ramakrishnan, Beeri,
//! Krishnamurthy; PODS 1988).
//!
//! This crate provides:
//!
//! * interned [`Symbol`]s and first-order [`Value`]s / [`Term`]s;
//! * *existential adornments* ([`Adornment`], strings over `n`/`d` — the
//!   paper's "needed" / "don't-care" annotations, §2 of the paper);
//! * [`Atom`], [`Rule`], [`Program`] with safety (range-restriction)
//!   validation, predicate dependency graphs and SCC-based recursion
//!   analysis;
//! * a hand-written pull lexer and parser for a small Datalog text format
//!   ([`parse_program`]), including adornment syntax (`p[nd]` or `p^nd`),
//!   wildcards and `?-` queries, plus round-tripping pretty printers; the
//!   parser reads facts straight into flat per-predicate batches
//!   ([`FactTable`]);
//! * substitutions, matching and unification for the function-free case,
//!   and Sagiv-style *freezing* of rules into ground instances
//!   ([`subst::freeze_rule`]).
//!
//! The AST is deliberately small and value-oriented: every optimizer phase in
//! the companion crates is an ordinary `Program -> Program` function, and
//! adorned predicates are ordinary predicates whose [`PredRef`] carries the
//! adornment.

pub mod adornment;
pub mod atom;
pub mod facts;
pub mod intern;
pub mod parser;
pub mod pred;
pub mod program;
// (pretty-printing lives in `Display` impls next to each type)
pub mod rule;
pub mod subst;
pub mod term;

pub use adornment::{Ad, Adornment};
pub use atom::{Atom, FactDisplay};
pub use facts::{FactBatch, FactRows, FactTable};
pub use intern::Symbol;
pub use parser::{parse_atom, parse_program, parse_rule, ParseError, ParsedProgram};
pub use pred::PredRef;
pub use program::{check_arity, Program, Query};
pub use rule::Rule;
pub use subst::{freeze_rule, unify_atoms, FrozenRule, Subst};
pub use term::{Term, Value, Var};

/// Errors raised by structural validation of programs and rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AstError {
    /// A head variable does not occur in the body (violates range
    /// restriction / safety).
    UnsafeRule {
        /// Rendered rule text.
        rule: String,
        /// The offending variable.
        var: String,
    },
    /// The same predicate is used with two different arities.
    ArityMismatch {
        pred: String,
        expected: usize,
        found: usize,
    },
    /// A predicate's adornment length disagrees with its argument count.
    ///
    /// Note that after projection (§3.2 of the paper) the adornment is
    /// *longer* than the argument list: the `d` positions have been dropped.
    /// In that case the argument count must equal the number of `n`s.
    AdornmentMismatch {
        pred: String,
        adornment: String,
        args: usize,
    },
    /// A wildcard (`_`) occurred in a rule head, which would make the rule
    /// unsafe.
    WildcardInHead { rule: String },
    /// The program has no query but an operation required one.
    NoQuery,
    /// The query references a predicate that does not exist in the program.
    UnknownQueryPredicate { pred: String },
}

impl std::fmt::Display for AstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AstError::UnsafeRule { rule, var } => {
                write!(
                    f,
                    "unsafe rule (head variable {var} not bound in body): {rule}"
                )
            }
            AstError::ArityMismatch {
                pred,
                expected,
                found,
            } => {
                write!(
                    f,
                    "predicate {pred} used with arity {found}, expected {expected}"
                )
            }
            AstError::AdornmentMismatch {
                pred,
                adornment,
                args,
            } => write!(
                f,
                "adornment {adornment} of {pred} incompatible with {args} argument(s)"
            ),
            AstError::NoQuery => write!(f, "program has no query"),
            AstError::WildcardInHead { rule } => {
                write!(f, "wildcard in rule head: {rule}")
            }
            AstError::UnknownQueryPredicate { pred } => {
                write!(
                    f,
                    "query predicate {pred} is not defined or used in the program"
                )
            }
        }
    }
}

impl std::error::Error for AstError {}
