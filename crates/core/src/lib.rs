#![deny(missing_docs)]

//! # dme-core — the formal framework of *Data Model Equivalence*
//!
//! This crate implements the paper's contribution proper: the formal
//! definitions of §2 (Figure 2) and the equivalence hierarchy of §3
//! (Definitions 1–6), as decision procedures and constructive
//! translators over the two semantic data models (`dme-relation`,
//! `dme-graph`).
//!
//! | paper | here |
//! |---|---|
//! | data model = {application model…} | a `Vec<FiniteModel>` checked by [`Checker::data_models`] |
//! | application model = (schema, {operation type…}) | [`model::FiniteModel`]: initial state + operation list + application function |
//! | operation : state → state | a closure returning `Option<State>` (`None` = the error state) |
//! | database = (application model, state) | a `(FiniteModel, State)` pair |
//! | state equivalence (§3.2.3) | fact-base equality via `dme-logic` ([`equiv::pair_states`]) |
//! | Definition 1 (operation equivalence) | signature equality ([`Tier::Operation`]) |
//! | Definition 2 (isomorphic equivalence) | [`Tier::Isomorphic`] |
//! | Definition 3 (composed operation equivalence) | [`Tier::Composed`] |
//! | Definitions 4–5 (state dependent equivalence) | [`Tier::StateDependent`] |
//! | Definition 6 (data model equivalence, partial equivalence) | [`Tier::DataModel`] |
//! | the "algorithm rather than an explicit enumeration" (§3.3.1) | [`translate`]: the graph↔relation operation translators |
//!
//! Every tier is driven through one facade: build a [`Checker`], pick a
//! [`Tier`], and [`Checker::run`] it.
//!
//! The checkers operate on **finite** application models — schemas over
//! enumerated domains — by exhaustively enumerating the closure of the
//! allowable operations from the empty state, exactly the paper's
//! definition of the valid states. For infinite models the constructive
//! translators (verified per call) take over.

pub mod arena;
pub mod bitset;
pub mod check;
pub mod enumerate;
pub mod equiv;
pub mod incremental;
pub mod model;
pub mod parallel;
pub mod slow_reference;
pub mod symbolic;
pub mod translate;
pub mod witness;

/// The observability layer ([`dme_obs`]), re-exported so checker
/// callers can build sinks and reports without a separate dependency.
pub use dme_obs as obs;

pub use arena::{ArenaStats, Closure, StateArena, StateId};
pub use bitset::BitSet;
pub use check::{Checker, Tier, DEFAULT_STATE_CAP};
pub use equiv::{pair_states, CheckError, DataModelReport, EquivKind, MatchReport};
pub use incremental::{CacheStats, IncrementalChecker};
pub use model::FiniteModel;
pub use parallel::{CheckBudget, ParallelConfig, Side, Verdict, Witness};
pub use symbolic::{
    DifferTrace, FoundCounterexample, SymbolicChecker, SymbolicConstraint, SymbolicOp,
    SymbolicSpec, DEFAULT_BOUND,
};
pub use translate::{
    compile_time_translation, graph_op_to_relational, materialize_relational_state,
    relational_op_to_graph, CompletionMode, TranslateError,
};
