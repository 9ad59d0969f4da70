//! # datalog-opt
//!
//! The optimizer of *Optimizing Existential Datalog Queries* (Ramakrishnan,
//! Beeri, Krishnamurthy; PODS 1988): given a Datalog program and an
//! existential query, rewrite the program so bottom-up evaluation does less
//! work without changing the query's answers.
//!
//! The three phases of the paper, plus the supporting machinery:
//!
//! * **Adornment** (§2) — via the `datalog-adorn` crate;
//! * **Phase 1** ([`components`]) — connected components of rule bodies;
//!   existential subqueries become zero-arity boolean rules the engine can
//!   retire after first success (the bottom-up cut, §3.1);
//! * **Phase 2** ([`projection`]) — drop the `d` argument positions
//!   (Lemma 3.2), shrinking recursive predicates' arities;
//! * **Phase 3** — rule deletion three ways:
//!   [`deletion`] (summary-based, Lemmas 5.1/5.3, Algorithm 5.1/5.2),
//!   [`uniform`] (Sagiv's frozen-rule test and the paper's uniform-query
//!   variant, Examples 4–6), and [`cleanup`] (undefined / unproductive /
//!   unreachable predicates, Examples 7–8);
//! * [`fold`] — the Example 11 folding rewrite that manufactures unit
//!   rules;
//! * [`subsume`] — θ-subsumption deletion (the §6 research direction:
//!   "detect subsumption of a rule by other rules"), a syntactic pre-pass
//!   preserving uniform equivalence;
//! * [`analyze`](mod@crate::analyze) — static diagnostics: existential opportunities, cross
//!   products, subsumed/unreachable/unproductive rules, chain-program and
//!   negation notes;
//! * [`pipeline`] — the end-to-end optimizer with a per-action [`Report`];
//! * [`paper`] — the paper's twelve worked examples as ready-to-use
//!   programs (with reconstruction notes where the source text is garbled).

pub mod analyze;
pub mod argproj;
pub mod cleanup;
pub mod components;
pub mod deletion;
pub mod fold;
pub mod paper;
pub mod pipeline;
pub mod prepare;
pub mod projection;
pub mod report;
pub mod subsume;
pub mod uniform;
pub mod validate;

pub use analyze::{analyze, Finding, FindingKind};
pub use argproj::{close_summaries, rule_projection, ArgProj};
pub use components::{extract_components, ComponentsResult};
pub use deletion::{summary_deletion, SummaryConfig};
pub use fold::{extract_definition, fold_with};
pub use pipeline::{optimize, OptimizeOutcome, OptimizerConfig};
pub use prepare::{
    canonical_query_atom, closure_fingerprints, edb_support, fingerprint_rules, prepare,
    PreparedProgram, QueryShape,
};
pub use projection::push_projections;
pub use report::{Action, EquivalenceLevel, Phase, Report, Snapshot};
pub use subsume::{delete_subsumed, subsumed_indices, subsumes, subsumption_witness};
pub use uniform::{freeze_deletion, UniformConfig};
pub use validate::{validate, Validation};

use datalog_adorn::AdornError;
use datalog_ast::AstError;
use datalog_engine::EngineError;

/// Optimizer errors.
#[derive(Debug)]
pub enum OptError {
    /// Structural problem in the program.
    Ast(AstError),
    /// Adornment failed.
    Adorn(AdornError),
    /// An equivalence oracle failed (evaluation error).
    Engine(EngineError),
    /// Projection would drop an argument whose variable is still used —
    /// the adornment was not produced by the §2 algorithm.
    InvalidProjection { pred: String, var: String },
    /// A rule or literal index was out of range.
    BadRuleIndex(usize),
    /// A generated predicate name collides with an existing predicate.
    PredicateExists(String),
    /// Folding requires the auxiliary predicate to have exactly one rule.
    FoldNeedsSingleDefinition(String),
    /// Translation validation refused the run; the string lists the
    /// failing checks.
    ValidationFailed(String),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Ast(e) => write!(f, "{e}"),
            OptError::Adorn(e) => write!(f, "{e}"),
            OptError::Engine(e) => write!(f, "{e}"),
            OptError::InvalidProjection { pred, var } => write!(
                f,
                "cannot project {pred}: dropped variable {var} is still used"
            ),
            OptError::BadRuleIndex(i) => write!(f, "rule/literal index {i} out of range"),
            OptError::PredicateExists(p) => write!(f, "predicate {p} already exists"),
            OptError::FoldNeedsSingleDefinition(p) => {
                write!(
                    f,
                    "folding through {p} requires it to have exactly one rule"
                )
            }
            OptError::ValidationFailed(detail) => {
                write!(f, "translation validation failed:\n{detail}")
            }
        }
    }
}

impl std::error::Error for OptError {}

impl From<AstError> for OptError {
    fn from(e: AstError) -> OptError {
        OptError::Ast(e)
    }
}

impl From<AdornError> for OptError {
    fn from(e: AdornError) -> OptError {
        OptError::Adorn(e)
    }
}

impl From<EngineError> for OptError {
    fn from(e: EngineError) -> OptError {
        OptError::Engine(e)
    }
}
