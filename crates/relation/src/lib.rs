#![deny(missing_docs)]

//! # dme-relation — the semantic relation data model
//!
//! An executable implementation of the semantic relation data model of
//! Borkin's *Data Model Equivalence* (§3.2.1). The model is a "semantic
//! version" of Codd's relational model, influenced by case grammars:
//!
//! * a relation is a set of **statements** (tuples), each the filled-in
//!   form of a natural-language sentence ("There is a machine of type __
//!   with number __ and this machine is operated by an employee named __");
//! * a relation's heading carries four rows of metadata: **predicate:case
//!   pairs**, **case types**, **characteristics**, and **domains**
//!   (Figure 3);
//! * the operations are the insertion and deletion of sets of statements,
//!   where insertion "is defined to automatically delete all tuples in a
//!   relation less than those inserted" under the null-based partial order
//!   (§3.3.1, Figures 6–8);
//! * every successful operation leaves the state satisfying the schema's
//!   **constraints** — semantic counterparts of functional dependencies,
//!   subset constraints and agreement constraints (§3.2.1);
//! * three semantic joins — **case-join**, **predicate-join** and
//!   **conjunction** — replace the syntactic join (§3.2.1).
//!
//! The crate is organised as:
//!
//! * [`schema`] — headings ([`Participant`], [`RelationSchema`]) and the
//!   application-model schema [`RelationalSchema`];
//! * [`state`] — [`RelationState`]: relation name → set of stored
//!   [`Statement`]s (a tuple with the facts it compiled to), with
//!   well-formedness and normalization;
//! * [`ops`] — [`RelOp`]: `insert-statements` / `delete-statements`;
//! * [`constraints`] — the constraint language and checker;
//! * [`facts`] — compilation of states into `dme-logic` fact bases
//!   (the §3.2.3 interpretation);
//! * [`fixtures`] — the paper's Figures 3, 7, 8 and 9 as ready-made
//!   schemas and states, shared by tests, examples and benches.

pub mod algebra;
pub mod constraints;
pub mod display;
pub mod facts;
pub mod fixtures;
pub mod ops;
pub mod schema;
pub mod state;

pub use constraints::{ColsRef, Constraint, ConstraintViolation};
pub use ops::{CompiledOp, OpError, RelOp};
pub use schema::{
    CharacteristicCol, Pair, Participant, RelationSchema, RelationalSchema, SchemaError,
};
pub use state::{RelationState, StateError, Statement, UndoLog};
