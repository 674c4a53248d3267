#![deny(missing_docs)]

//! # dme-graph — the semantic graph data model
//!
//! An executable implementation of the semantic graph data model of
//! Borkin's *Data Model Equivalence* (§3.2.2) — a "semantic version" of
//! the DBTG network model, similar to Schmid & Swenson and Deheneffe et
//! al.:
//!
//! * the database state "is meant to consist of objects in 1-1
//!   correspondence with the application state": **entities**,
//!   **associations** and **characteristics**, joined by **role** and
//!   **characteristic edges** (Figure 4);
//! * the schema (Figure 5) distinguishes **total** (solid) from
//!   **optional** (dotted) role edges — "every machine must be part of an
//!   operation association but not every employee need be" — and carries
//!   **functionality arrowheads** — "employees are uniquely identified by
//!   their name … a machine may belong to only one operation
//!   association";
//! * the operations "directly model the kinds of transitions which can
//!   take place in the application": insertion/deletion of an independent
//!   entity, an independent association, or a **semantic unit** — "a
//!   group of entities and associations which must be inserted or deleted
//!   as a single unit due to restrictions stated in the schema"
//!   ("whenever a machine is inserted or deleted, an operation
//!   association must also be inserted or deleted").
//!
//! Modules:
//!
//! * [`schema`] — [`GraphSchema`]: participation rules per (entity type,
//!   predicate, role): totality and functionality;
//! * [`state`] — [`GraphState`]: entities and associations with identity,
//!   plus validation against the schema;
//! * [`ops`] — [`GraphOp`]: the six operation types;
//! * [`mod@unit`] — semantic-unit closure computation;
//! * [`facts`] — compilation into `dme-logic` fact bases;
//! * [`fixtures`] — Figures 4, 5 and 6 ready-made.

pub mod display;
pub mod facts;
pub mod fixtures;
pub mod ops;
pub mod schema;
pub mod state;
pub mod unit;

pub use ops::{GraphChange, GraphOp, GraphOpError, GraphTxn, GraphUndo};
pub use schema::{GraphSchema, GraphSchemaError, Participation};
pub use state::{Association, Entity, EntityRef, GraphState, GraphStateError, Roles, RolesIter};
pub use unit::SemanticUnit;
