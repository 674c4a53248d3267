//! The operation types of the semantic graph model (§3.2.2).
//!
//! "The operations in this data model are meant to directly model the
//! kinds of transitions which can take place in the application. The
//! operations allowed are the insertion or deletion of an independent
//! entity, an independent association or a semantic unit."
//!
//! Every operation applies its raw changes and then re-validates the
//! whole state against the schema; any violation — a machine inserted
//! without its operation association, a deletion leaving a dangling role
//! edge — yields the paper's *error state* (`Err`), leaving the input
//! state untouched.

use std::fmt;

use crate::state::{Association, Entity, EntityRef, GraphState, GraphStateError};
use crate::unit::SemanticUnit;

/// Errors turning a graph operation into the paper's error state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphOpError(pub GraphStateError);

impl fmt::Display for GraphOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph operation failed: {}", self.0)
    }
}

impl std::error::Error for GraphOpError {}

impl From<GraphStateError> for GraphOpError {
    fn from(e: GraphStateError) -> Self {
        GraphOpError(e)
    }
}

/// An operation of the semantic graph model.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GraphOp {
    /// Insert an independent entity (valid only when the entity's type
    /// has no total participation).
    InsertEntity(Entity),
    /// Delete an independent entity (valid only when it participates in
    /// no association).
    DeleteEntity(EntityRef),
    /// Insert an independent association between existing entities.
    InsertAssociation(Association),
    /// Delete an independent association (valid only when no
    /// participant's totality depends on it).
    DeleteAssociation(Association),
    /// Insert a semantic unit atomically (e.g. a machine together with
    /// its operation association).
    InsertUnit(SemanticUnit),
    /// Delete a semantic unit atomically.
    DeleteUnit(SemanticUnit),
}

impl GraphOp {
    /// Applies the operation, yielding the new state or the error state:
    /// [`GraphOp::apply_unvalidated`] on a clone of `state`, then
    /// [`GraphState::validate`] on the result.
    ///
    /// The paper's Figure 4 → Figure 6 transition:
    ///
    /// ```
    /// use dme_graph::{fixtures, Association, EntityRef, GraphOp};
    /// use dme_value::Atom;
    ///
    /// let op = GraphOp::InsertAssociation(Association::new(
    ///     "supervise",
    ///     [
    ///         ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
    ///         ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
    ///     ],
    /// ));
    /// let after = op.apply(&fixtures::figure4_state()).unwrap();
    /// assert_eq!(after, fixtures::figure6_state());
    /// // Inserting it again is the error state (strict object semantics):
    /// assert!(op.apply(&after).is_err());
    /// ```
    pub fn apply(&self, state: &GraphState) -> Result<GraphState, GraphOpError> {
        let mut next = state.clone();
        self.apply_unvalidated(&mut next)?;
        next.validate()?;
        Ok(next)
    }

    /// Applies the operation's raw changes in place *without* the final
    /// whole-state validation, returning the undo token. On a raw-change
    /// error the state is left untouched.
    ///
    /// [`GraphOp::apply`] is exactly this followed by
    /// [`GraphState::validate`] on the result; an in-place caller that
    /// meets a failed validation hands the token to [`GraphUndo::revert`].
    /// The split lets the closure enumerator validate only candidates
    /// that are not already interned (an interned state was validated
    /// when it was interned).
    pub fn apply_unvalidated(&self, state: &mut GraphState) -> Result<GraphUndo, GraphOpError> {
        apply_raw_logged(state, self).map(|log| GraphUndo { log })
    }

    /// Applies a sequence of operations (a composed operation), stopping
    /// at the first error.
    pub fn apply_all<'a>(
        ops: impl IntoIterator<Item = &'a GraphOp>,
        state: &GraphState,
    ) -> Result<GraphState, GraphOpError> {
        let mut cur = state.clone();
        for op in ops {
            cur = op.apply(&cur)?;
        }
        Ok(cur)
    }

    /// In-place O(delta) application of a composed operation: the same
    /// outcome as [`GraphOp::apply_all`] without the per-op state clone
    /// and without the per-op whole-state validation.
    ///
    /// Each operation's raw mutations run in place and validation is
    /// restricted to the entity refs they touched (see
    /// [`GraphState::validate_touched`] for the soundness argument —
    /// it requires the pre-sequence state to be valid, which every
    /// state reachable through `GraphOp` application is). Validation
    /// still runs after *every* operation, so a sequence stops at
    /// exactly the same first operation as `apply_all`.
    ///
    /// On success returns the transaction record: the raw change log in
    /// application order (a replay-exact script of the sequence's
    /// effect) plus the undo log. On error the state is rolled back to
    /// its pre-sequence value exactly, fingerprint and role index
    /// included.
    pub fn apply_all_delta<'a>(
        ops: impl IntoIterator<Item = &'a GraphOp>,
        state: &mut GraphState,
    ) -> Result<GraphTxn, GraphOpError> {
        let mut undo_all: Vec<GraphUndoEntry> = Vec::new();
        let mut changes: Vec<GraphChange> = Vec::new();
        for op in ops {
            let log = match apply_raw_logged(state, op) {
                Ok(log) => log,
                Err(e) => {
                    rollback(state, undo_all);
                    return Err(e);
                }
            };
            let mut touched: std::collections::BTreeSet<EntityRef> =
                std::collections::BTreeSet::new();
            for entry in &log {
                match entry {
                    GraphUndoEntry::RemoveEntity(r) => {
                        touched.insert(r.clone());
                    }
                    GraphUndoEntry::ReinsertEntity(e) => {
                        touched.insert(
                            e.to_ref(state.schema())
                                .expect("entity was present in the state"),
                        );
                    }
                    GraphUndoEntry::RemoveAssociation(a)
                    | GraphUndoEntry::ReinsertAssociation(a) => {
                        touched.extend(a.roles.values().cloned());
                    }
                }
            }
            if let Err(e) = state.validate_touched(&touched) {
                rollback(state, log);
                rollback(state, undo_all);
                return Err(GraphOpError(e));
            }
            for entry in &log {
                changes.push(match entry {
                    GraphUndoEntry::RemoveEntity(r) => GraphChange::InsertEntity(
                        state.entity(r).expect("entity was just inserted").clone(),
                    ),
                    GraphUndoEntry::ReinsertEntity(e) => GraphChange::DeleteEntity(e.clone()),
                    GraphUndoEntry::RemoveAssociation(a) => {
                        GraphChange::InsertAssociation(a.clone())
                    }
                    GraphUndoEntry::ReinsertAssociation(a) => {
                        GraphChange::DeleteAssociation(a.clone())
                    }
                });
            }
            undo_all.extend(log);
        }
        Ok(GraphTxn {
            changes,
            undo: undo_all,
        })
    }

    /// Reverts a transaction produced by [`GraphOp::apply_all_delta`],
    /// restoring the exact pre-sequence state. Only meaningful against
    /// the state the transaction was applied to, with no interleaving
    /// mutations.
    pub fn undo_txn(state: &mut GraphState, txn: GraphTxn) {
        rollback(state, txn.undo);
    }
}

/// One raw mutation of a successfully applied operation sequence, in
/// application order. The log is a replay-exact script: applying each
/// change's raw mutation to the pre-state reproduces the post-state,
/// which is what lets the server encode a transaction's WAL payload in
/// O(changes) instead of diffing two whole states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphChange {
    /// An entity was inserted.
    InsertEntity(Entity),
    /// An entity was deleted (the full entity, so the change log is
    /// invertible and delete records can carry the tuple image).
    DeleteEntity(Entity),
    /// An association was inserted.
    InsertAssociation(Association),
    /// An association was deleted.
    DeleteAssociation(Association),
}

/// The record of one successful [`GraphOp::apply_all_delta`] call: the
/// forward change log plus the inverse log needed to revert it.
#[derive(Debug, Default)]
pub struct GraphTxn {
    changes: Vec<GraphChange>,
    undo: Vec<GraphUndoEntry>,
}

impl GraphTxn {
    /// The raw change log in application order.
    pub fn changes(&self) -> &[GraphChange] {
        &self.changes
    }

    /// Consumes the transaction, keeping only the forward change log
    /// (forfeiting the ability to undo).
    pub fn into_changes(self) -> Vec<GraphChange> {
        self.changes
    }

    /// Appends a transaction applied right after this one, so one
    /// [`GraphOp::undo_txn`] reverts both: applying a sequence one
    /// operation at a time and appending each record yields the record
    /// [`GraphOp::apply_all_delta`] returns for the whole sequence.
    pub fn append(&mut self, later: GraphTxn) {
        self.changes.extend(later.changes);
        self.undo.extend(later.undo);
    }
}

/// One inverse raw mutation recorded while applying a [`GraphOp`] in
/// place; replaying the log in reverse restores the pre-apply state
/// (including its fingerprint and role index) exactly.
#[derive(Debug)]
enum GraphUndoEntry {
    /// Undoes an entity insertion.
    RemoveEntity(EntityRef),
    /// Undoes an entity removal.
    ReinsertEntity(Entity),
    /// Undoes an association insertion.
    RemoveAssociation(Association),
    /// Undoes an association removal.
    ReinsertAssociation(Association),
}

/// The undo token of one successful in-place [`GraphOp`] application.
#[derive(Debug)]
pub struct GraphUndo {
    log: Vec<GraphUndoEntry>,
}

impl GraphUndo {
    /// Reverts the [`GraphOp::apply_unvalidated`] call that produced this
    /// token, restoring the exact prior state (fingerprint and role index
    /// included). Tokens must be reverted in LIFO order, against the
    /// state they were produced on.
    pub fn revert(self, state: &mut GraphState) {
        rollback(state, self.log);
    }
}

fn rollback(state: &mut GraphState, log: Vec<GraphUndoEntry>) {
    for entry in log.into_iter().rev() {
        let outcome = match entry {
            GraphUndoEntry::RemoveEntity(r) => state.remove_entity_raw(&r).map(|_| ()),
            GraphUndoEntry::ReinsertEntity(e) => state.insert_entity_raw(e).map(|_| ()),
            GraphUndoEntry::RemoveAssociation(a) => state.remove_association_raw(&a),
            GraphUndoEntry::ReinsertAssociation(a) => state.insert_association_raw(a),
        };
        outcome.expect("undo entries invert previously applied raw mutations");
    }
}

/// In-place raw application of `op`, recording inverse entries. On
/// error the partial log is rolled back and the state is untouched.
fn apply_raw_logged(
    state: &mut GraphState,
    op: &GraphOp,
) -> Result<Vec<GraphUndoEntry>, GraphOpError> {
    let mut log: Vec<GraphUndoEntry> = Vec::new();
    let step =
        |state: &mut GraphState, log: &mut Vec<GraphUndoEntry>| -> Result<(), GraphOpError> {
            match op {
                GraphOp::InsertEntity(e) => {
                    let r = state.insert_entity_raw(e.clone())?;
                    log.push(GraphUndoEntry::RemoveEntity(r));
                }
                GraphOp::DeleteEntity(r) => {
                    let e = state.remove_entity_raw(r)?;
                    log.push(GraphUndoEntry::ReinsertEntity(e));
                }
                GraphOp::InsertAssociation(a) => {
                    state.insert_association_raw(a.clone())?;
                    log.push(GraphUndoEntry::RemoveAssociation(a.clone()));
                }
                GraphOp::DeleteAssociation(a) => {
                    state.remove_association_raw(a)?;
                    log.push(GraphUndoEntry::ReinsertAssociation(a.clone()));
                }
                GraphOp::InsertUnit(u) => {
                    for e in &u.entities {
                        let r = state.insert_entity_raw(e.clone())?;
                        log.push(GraphUndoEntry::RemoveEntity(r));
                    }
                    for a in &u.associations {
                        state.insert_association_raw(a.clone())?;
                        log.push(GraphUndoEntry::RemoveAssociation(a.clone()));
                    }
                }
                GraphOp::DeleteUnit(u) => {
                    for a in &u.associations {
                        state.remove_association_raw(a)?;
                        log.push(GraphUndoEntry::ReinsertAssociation(a.clone()));
                    }
                    for e in &u.entities {
                        let r = e.to_ref(state.schema()).ok_or_else(|| {
                            GraphStateError::BadCharacteristics(EntityRef::new(
                                e.entity_type.clone(),
                                dme_value::Atom::str("<missing id>"),
                            ))
                        })?;
                        let e = state.remove_entity_raw(&r)?;
                        log.push(GraphUndoEntry::ReinsertEntity(e));
                    }
                }
            }
            Ok(())
        };
    match step(state, &mut log) {
        Ok(()) => Ok(log),
        Err(e) => {
            rollback(state, log);
            Err(e)
        }
    }
}

impl fmt::Display for GraphOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphOp::InsertEntity(e) => write!(f, "insert-entity {e}"),
            GraphOp::DeleteEntity(r) => write!(f, "delete-entity {r}"),
            GraphOp::InsertAssociation(a) => write!(f, "insert-association {a}"),
            GraphOp::DeleteAssociation(a) => write!(f, "delete-association {a}"),
            GraphOp::InsertUnit(u) => write!(f, "insert-unit {u}"),
            GraphOp::DeleteUnit(u) => write!(f, "delete-unit {u}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::unit::deletion_unit;
    use dme_value::Atom;

    fn emp(name: &str) -> EntityRef {
        EntityRef::new("employee", Atom::str(name))
    }

    fn machine(number: &str) -> EntityRef {
        EntityRef::new("machine", Atom::str(number))
    }

    fn gw_tm_supervision() -> Association {
        Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
        )
    }

    #[test]
    fn figure4_to_figure6_via_insert_association() {
        // §3.3.1: "adding to the graph database state of Figure 4 a
        // supervision association between G.Wayshum and T.Manhart
        // resulting in Figure 6."
        let f4 = fixtures::figure4_state();
        let op = GraphOp::InsertAssociation(gw_tm_supervision());
        let out = op.apply(&f4).unwrap();
        assert_eq!(out, fixtures::figure6_state());
        // Input untouched.
        assert_eq!(f4, fixtures::figure4_state());
    }

    #[test]
    fn delete_association_restores_figure4() {
        let f6 = fixtures::figure6_state();
        let op = GraphOp::DeleteAssociation(gw_tm_supervision());
        assert_eq!(op.apply(&f6).unwrap(), fixtures::figure4_state());
    }

    #[test]
    fn independent_entity_insert_and_delete() {
        // Employees have no total participation: they are independent.
        let f4 = fixtures::figure4_state();
        let new_emp = Entity::new(
            "employee",
            [("name", Atom::str("T.Manhart")), ("age", Atom::int(32))],
        );
        // Already exists → error.
        assert!(GraphOp::InsertEntity(new_emp).apply(&f4).is_err());

        // Delete an employee with no associations: G.Wayshum supervises,
        // so deleting them dangles.
        assert!(GraphOp::DeleteEntity(emp("G.Wayshum")).apply(&f4).is_err());

        // But a freshly inserted, unconnected employee can be deleted.
        // (Use the figure 8 premise where T.Manhart has no associations.)
        let premise = fixtures::figure8_premise_state();
        let out = GraphOp::DeleteEntity(emp("T.Manhart"))
            .apply(&premise)
            .unwrap();
        assert_eq!(out.sizes(), (3, 2));
    }

    #[test]
    fn machine_cannot_be_inserted_independently() {
        // "Whenever a machine is inserted or deleted, an operation
        // association must also be inserted or deleted."
        let premise = fixtures::figure8_premise_state();
        let m = Entity::new(
            "machine",
            [("number", Atom::str("NZ745")), ("type", Atom::str("lathe"))],
        );
        let err = GraphOp::InsertEntity(m.clone())
            .apply(&premise)
            .unwrap_err();
        assert!(matches!(err.0, GraphStateError::TotalityViolation { .. }));

        // As a semantic unit with its operation association it works.
        let unit = SemanticUnit::new()
            .with_entity(m)
            .with_association(Association::new(
                "operate",
                [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
            ));
        let out = GraphOp::InsertUnit(unit).apply(&premise).unwrap();
        assert_eq!(out, fixtures::figure4_state());
    }

    #[test]
    fn delete_unit_of_machine() {
        let f4 = fixtures::figure4_state();
        let unit = deletion_unit(&f4, [machine("NZ745")], []);
        let out = GraphOp::DeleteUnit(unit).apply(&f4).unwrap();
        assert_eq!(out, fixtures::figure8_premise_state());
    }

    #[test]
    fn deleting_operation_association_alone_is_an_error() {
        let f4 = fixtures::figure4_state();
        let op = Association::new(
            "operate",
            [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
        );
        let err = GraphOp::DeleteAssociation(op).apply(&f4).unwrap_err();
        assert!(matches!(err.0, GraphStateError::TotalityViolation { .. }));
    }

    #[test]
    fn functionality_enforced_on_insert() {
        let f4 = fixtures::figure4_state();
        let second_operator = Association::new(
            "operate",
            [("agent", emp("C.Gershag")), ("object", machine("NZ745"))],
        );
        let err = GraphOp::InsertAssociation(second_operator)
            .apply(&f4)
            .unwrap_err();
        assert!(matches!(
            err.0,
            GraphStateError::FunctionalityViolation { .. }
        ));
    }

    #[test]
    fn association_between_missing_entities_is_an_error() {
        let premise = fixtures::figure8_premise_state(); // no NZ745
        let op = Association::new(
            "operate",
            [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
        );
        let err = GraphOp::InsertAssociation(op).apply(&premise).unwrap_err();
        assert!(matches!(err.0, GraphStateError::DanglingRole { .. }));
    }

    #[test]
    fn apply_all_composes() {
        let f4 = fixtures::figure4_state();
        let ops = vec![
            GraphOp::InsertAssociation(gw_tm_supervision()),
            GraphOp::DeleteAssociation(gw_tm_supervision()),
        ];
        assert_eq!(GraphOp::apply_all(&ops, &f4).unwrap(), f4);
        let bad = vec![GraphOp::DeleteEntity(emp("Nobody"))];
        assert!(GraphOp::apply_all(&bad, &f4).is_err());
    }

    #[test]
    fn display() {
        let op = GraphOp::DeleteEntity(emp("X"));
        assert_eq!(op.to_string(), "delete-entity employee[X]");
        assert!(GraphOp::InsertAssociation(gw_tm_supervision())
            .to_string()
            .starts_with("insert-association supervise("));
    }
}
