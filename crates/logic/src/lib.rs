#![deny(missing_docs)]

//! # dme-logic — first-order ground-fact substrate
//!
//! §3.2.3 of Borkin's paper defines database state equivalence between the
//! semantic relation and semantic graph models like this:
//!
//! > "We could show this by translating each relational statement into a
//! > formal logic statement and then showing that the semantic graph state
//! > is a model, in the formal logic sense, for the set of logical
//! > statements."
//!
//! This crate is that formal-logic middle layer. Both data models compile
//! their states into a [`FactBase`] — a set of ground [`Fact`]s over a
//! shared *case-grammar vocabulary* (predicates with named cases). Two
//! heterogeneous states are **state equivalent** exactly when they compile
//! to the same fact base; because the compilation is canonical and
//! injective on valid states, the induced correspondence is 1-1 and onto,
//! as Definition 1's preamble requires.
//!
//! The canonical vocabulary (see [`vocab`]) has three fact shapes:
//!
//! * **existence** — `be employee{name: T.Manhart}`: an entity of a type
//!   exists, identified by its identifying characteristic;
//! * **characteristic** — `employee.age{name: T.Manhart, age: 32}`: a
//!   non-identifying characteristic of an entity;
//! * **association** — `operate{agent: T.Manhart, object: NZ745}`: an
//!   event described by a predicate, with each case (role) bound to the
//!   identifying value of its participant.

pub mod fact;
pub mod factbase;
pub mod fingerprint;
pub mod interpretation;
pub mod pattern;
pub mod universe;
pub mod vocab;

pub use fact::Fact;
pub use factbase::{FactBase, FactDelta};
pub use fingerprint::{
    content_fingerprint, content_fingerprint_seeded, content_fingerprint_wide,
    FingerprintBuildHasher, FingerprintHasher,
};
pub use interpretation::{state_equivalent, EquivalenceReport, ToFacts};
pub use pattern::Pattern;
pub use universe::{EntityTypeDecl, PredicateDecl, Universe, UniverseError};
