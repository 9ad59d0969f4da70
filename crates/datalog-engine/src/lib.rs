//! # datalog-engine
//!
//! A bottom-up (fixpoint) evaluation engine for function-free Datalog — the
//! execution substrate assumed throughout *Optimizing Existential Datalog
//! Queries* (Ramakrishnan, Beeri, Krishnamurthy; PODS 1988, §1.1).
//!
//! Features:
//!
//! * [`FactSet`]: a simple, order-insensitive fact store used by tests and
//!   the equivalence oracles, and [`Edb`]: the input of one evaluation, in
//!   per-predicate batches that reach the relations by one sorted batch
//!   load each;
//! * [`Relation`]/[`Database`]: interned-predicate tuple storage in which
//!   one keyed structure, an id table grouped by key, serves dedup, every
//!   planned join index and every point-read index — the one tuple store,
//!   also behind the server's [`SharedDatabase`];
//! * naive and **semi-naive** fixpoint evaluation ([`evaluate`]) with
//!   instrumented [`EvalStats`] (facts derived, derivations, duplicate hits,
//!   tuples scanned, index probes, iterations) — the machine-independent
//!   costs the paper's optimizations target;
//! * the **boolean-cut runtime** of §3.1: once a zero-arity predicate is
//!   proven, its defining rules are retired from the fixpoint, and rules
//!   that only feed retired rules are retired transitively — the bottom-up
//!   analogue of Prolog's cut;
//! * derivation-tree **provenance** (§1.1 of the paper defines answers via
//!   derivation trees; [`Provenance::derivation_tree`] materializes them);
//! * **optimistic derivations** (Theorem 5.2) in [`optimistic`];
//! * uniform-equivalence **oracles** in [`oracle`]: Sagiv's frozen-rule test
//!   and the paper's uniform *query* equivalence variant, plus bounded
//!   random-instance equivalence checking used heavily by the test suites.

pub mod cancel;
pub mod database;
pub mod eval;
pub mod facts;
pub mod incremental;
pub mod optimistic;
pub mod oracle;
pub mod provenance;
pub mod relation;
pub mod shared;
pub mod stats;
pub mod storage;

pub use cancel::{CancelToken, Clock, ManualClock};
pub use database::{Database, PredId};
pub use eval::{
    evaluate, extract_answers, query_answers, query_answers_full, EvalOptions, EvalOutput, Strategy,
};
pub use facts::{AnswerSet, Edb, FactSet};
pub use incremental::{DeltaLimits, DeltaReport, Fact, ResidentEval};
pub use optimistic::optimistic_fixpoint;
pub use oracle::{uniform_query_test, uniform_test};
pub use provenance::{DerivationTree, Provenance};
pub use relation::Relation;
pub use shared::{lock_or_recover, DbSnapshot, SharedDatabase, SharedDbError, SharedRelation};
pub use stats::EvalStats;
pub use storage::{storage_counters, StorageCounters};

use datalog_ast::AstError;

/// Engine-level errors.
///
/// The resource-limit variants ([`IterationLimit`](EngineError::IterationLimit),
/// [`DeadlineExceeded`](EngineError::DeadlineExceeded),
/// [`BudgetExceeded`](EngineError::BudgetExceeded),
/// [`Cancelled`](EngineError::Cancelled)) carry the [`EvalStats`]
/// accumulated up to the trip point, so callers can report how much work a
/// refused query had already done ([`EngineError::partial_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Structural problem in the program (unsafe rule, arity clash, ...).
    Ast(AstError),
    /// A fact's arity disagrees with its predicate's arity in the program,
    /// or — for a predicate the program does not mention — with the
    /// predicate's other facts.
    FactArity {
        pred: String,
        expected: usize,
        found: usize,
    },
    /// The fixpoint exceeded the configured iteration bound.
    IterationLimit {
        /// The configured [`EvalOptions::max_iterations`](eval::EvalOptions::max_iterations).
        limit: usize,
        /// Counters accumulated up to the trip.
        stats: EvalStats,
    },
    /// The fixpoint ran past [`EvalOptions::deadline`](eval::EvalOptions::deadline).
    /// Observed cooperatively (every iteration and every few thousand
    /// joined rows), so the overshoot is bounded.
    DeadlineExceeded {
        /// Wall-clock milliseconds elapsed when the trip was observed.
        elapsed_ms: u64,
        /// Counters accumulated up to the trip.
        stats: EvalStats,
    },
    /// The fixpoint derived more new facts than
    /// [`EvalOptions::fact_budget`](eval::EvalOptions::fact_budget) allows.
    BudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// Counters accumulated up to the trip.
        stats: EvalStats,
    },
    /// The evaluation's [`CancelToken`] was triggered.
    Cancelled {
        /// Counters accumulated up to the trip.
        stats: EvalStats,
    },
    /// The program negates through recursion: no stratification exists.
    NotStratified { pred: String },
    /// Input rows for `pred`, which a program with negation derives:
    /// [`incremental::ResidentEval`] may recompute its relation, which
    /// would drop them.
    DerivedInput { pred: String },
}

impl EngineError {
    /// The partial [`EvalStats`] a resource-limit trip carried, if any.
    pub fn partial_stats(&self) -> Option<&EvalStats> {
        match self {
            EngineError::IterationLimit { stats, .. }
            | EngineError::DeadlineExceeded { stats, .. }
            | EngineError::BudgetExceeded { stats, .. }
            | EngineError::Cancelled { stats } => Some(stats),
            _ => None,
        }
    }

    /// Whether this error is a resource-limit trip (as opposed to a
    /// structural problem with the program or input).
    pub fn is_limit(&self) -> bool {
        self.partial_stats().is_some()
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Ast(e) => write!(f, "{e}"),
            EngineError::FactArity {
                pred,
                expected,
                found,
            } => write!(f, "fact for {pred} has arity {found}, expected {expected}"),
            EngineError::IterationLimit { limit, .. } => {
                write!(f, "fixpoint did not converge within {limit} iterations")
            }
            EngineError::DeadlineExceeded { elapsed_ms, .. } => {
                write!(f, "evaluation exceeded its deadline after {elapsed_ms}ms")
            }
            EngineError::BudgetExceeded { budget, .. } => {
                write!(
                    f,
                    "evaluation exceeded its budget of {budget} derived facts"
                )
            }
            EngineError::Cancelled { .. } => write!(f, "evaluation was cancelled"),
            EngineError::NotStratified { pred } => {
                write!(
                    f,
                    "program is not stratified: {pred} is negated through recursion"
                )
            }
            EngineError::DerivedInput { pred } => {
                write!(
                    f,
                    "input rows for {pred}, which a program with negation derives"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<AstError> for EngineError {
    fn from(e: AstError) -> EngineError {
        EngineError::Ast(e)
    }
}
