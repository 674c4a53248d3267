#![deny(missing_docs)]

//! # dme-ansi — external views of the ANSI/SPARC three-schema architecture
//!
//! §1.2 of the paper describes the architecture that motivates the whole
//! equivalence framework: an **internal schema** (physical storage), a
//! **conceptual schema** (the application model proper) and multiple
//! **external schemas** (per-user views), with mapping functions between
//! the levels. The conclusion sketches the payoff: "the ability to
//! support equivalent relational and graph application models accessing
//! a shared database would allow the best of both worlds — a simple
//! relational view for retrieval and a graph model for updating."
//!
//! This crate holds the external level:
//!
//! * [`ExternalView`] is one external schema — a semantic relation
//!   application model (`dme-relation`) materialized over the graph
//!   conceptual state and kept in lockstep through the verified
//!   operation translators of `dme-core`, with a per-view completion
//!   mode and vocabulary (so a view may describe a §1.2 *subset* of the
//!   conceptual schema);
//! * [`ViewSession`] is one user's snapshot handle over a view, which
//!   translates the user's relational operations up to conceptual ones.
//!
//! The database that wires the three levels together is
//! `dme-server`'s `SessionService`: its conceptual level is a semantic
//! graph state, its external levels are these views, and its internal
//! level is the MVCC store, write-ahead log and checkpoint chain of
//! `dme-storage`.

pub mod session;
pub mod view;

pub use session::ViewSession;
pub use view::ExternalView;
