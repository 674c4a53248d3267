#![deny(missing_docs)]

//! # dme-value — value domain substrate
//!
//! The lowest layer of the `borkin-equiv` workspace: the values that appear
//! in database states of every data model implemented here (the semantic
//! relation model, the semantic graph model, and the syntactic baselines).
//!
//! Borkin's paper (VLDB 1978, §3.2.1 and §3.3.1) requires three things of
//! the value layer:
//!
//! 1. **Atomic values** drawn from named *domains* ("the schema must contain
//!    a specification of the values comprising each domain").
//! 2. A distinguished **null value** ("----" in the paper's figures),
//!    allowed in some columns, meaning "no such participant".
//! 3. A **partial order** on values and tuples: "The partial ordering of
//!    tuples is based on all non-null domain values being greater than null
//!    and incomparable with any values other than null and itself."
//!    The `insert-statements` operation of the semantic relation model uses
//!    this order to automatically delete all tuples *less than* those
//!    inserted (the Figure 6 → Figure 7 transition).
//!
//! This crate provides [`Atom`], [`Value`], [`Tuple`], [`Domain`],
//! [`DomainCatalog`] and the interned [`Symbol`] type used for every name
//! (relations, predicates, cases, characteristics, entity types, roles).

pub mod atom;
pub mod domain;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use atom::Atom;
pub use domain::{Domain, DomainCatalog, DomainError, DomainSpec};
pub use symbol::{sort_bindings, Symbol};
pub use tuple::Tuple;
pub use value::Value;
