//! Session handles over external views.
//!
//! The conclusion's payoff claim — operation equivalence "would actually
//! allow the implementation of a database system which provides users of
//! two different data models with access to the same data" — needs a
//! per-user object: each user session holds a *snapshot* of its external
//! view paired with the conceptual state it was materialized against,
//! translates its own relational operations up to conceptual operations,
//! and moves on by rebasing onto a newer snapshot. The concurrent
//! session service (`dme-server`) hands one of these to every relational
//! session and advances the shared views itself, translating committed
//! conceptual operations back down; graph sessions speak the conceptual
//! model directly and need no handle.

use dme_core::translate::{relational_op_to_compiled_graph, CompletionMode, TranslateError};
use dme_graph::{GraphOp, GraphState};
use dme_relation::{RelOp, RelationState, RelationalSchema};
use std::sync::Arc;

use crate::generation::Generation;
use crate::view::ExternalView;

/// A session's private, snapshot-isolated handle over one external view.
///
/// The handle *shares* the view state and the conceptual generation it
/// was snapshotted against — that state and its compiled fact base —
/// (`Arc` copy-on-write): opening a session is reference bumps, not a
/// state clone or a compile. Translation therefore never races the
/// shared database: re-snapshotting after a commit conflict is
/// [`ViewSession::rebase`].
#[derive(Clone)]
pub struct ViewSession {
    view: Arc<ExternalView>,
    conceptual: Generation,
}

impl std::fmt::Debug for ViewSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ViewSession({:?})", self.view)
    }
}

impl ViewSession {
    /// Snapshots a session handle over `view`, paired with the
    /// conceptual generation it is currently consistent with. O(1):
    /// both are shared, not cloned.
    pub fn over(view: Arc<ExternalView>, conceptual: Generation) -> Self {
        ViewSession { view, conceptual }
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        self.view.name()
    }

    /// The view's application-model schema.
    pub fn schema(&self) -> &Arc<RelationalSchema> {
        self.view.schema()
    }

    /// The snapshot's relational state (the session's reads).
    pub fn state(&self) -> &RelationState {
        self.view.state()
    }

    /// The completion mode translations into this view use.
    pub fn mode(&self) -> CompletionMode {
        self.view.mode()
    }

    /// The conceptual state this snapshot is paired with.
    pub fn conceptual(&self) -> &GraphState {
        self.conceptual.state()
    }

    /// A shared handle on the snapshot's conceptual state (no clone).
    pub fn conceptual_shared(&self) -> Arc<GraphState> {
        Arc::clone(self.conceptual.state())
    }

    /// Translates one of the session's relational operations up to the
    /// conceptual operations it is equivalent to, against this snapshot
    /// and its generation's fact base.
    pub fn translate_up(&self, op: &RelOp) -> Result<Vec<GraphOp>, TranslateError> {
        relational_op_to_compiled_graph(
            op,
            self.view.state(),
            self.conceptual.state(),
            self.conceptual.facts(),
        )
    }

    /// Re-snapshots against fresh authoritative states (after a commit
    /// conflict invalidated this snapshot).
    pub fn rebase(&mut self, view: Arc<ExternalView>, conceptual: Generation) {
        *self = ViewSession::over(view, conceptual);
    }

    /// Definition 2 within the view's vocabulary: the snapshot pair is
    /// state equivalent. Compiles the conceptual state afresh rather
    /// than trusting the shared fact base.
    pub fn consistent(&self) -> bool {
        self.view.consistent_with(self.conceptual.state())
    }

    /// Consumes the handle, yielding the snapshot view (unshared).
    pub fn into_view(self) -> ExternalView {
        Arc::try_unwrap(self.view).unwrap_or_else(|shared| (*shared).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_graph::fixtures as gfix;
    use dme_graph::{Association, EntityRef};
    use dme_relation::fixtures as rfix;
    use dme_value::{tuple, Atom, Value};

    fn session_over(view: ExternalView, conceptual: GraphState) -> ViewSession {
        ViewSession::over(Arc::new(view), Generation::new(conceptual))
    }

    fn machine_shop_session() -> ViewSession {
        let conceptual = gfix::figure4_state();
        let view = ExternalView::materialize(
            "shop",
            rfix::machine_shop_schema(),
            &conceptual,
            CompletionMode::StateCompleted,
        )
        .unwrap();
        session_over(view, conceptual)
    }

    #[test]
    fn snapshot_reads_and_metadata() {
        let s = machine_shop_session();
        assert_eq!(s.name(), "shop");
        assert_eq!(s.state(), &rfix::figure3_state());
        assert_eq!(s.mode(), CompletionMode::StateCompleted);
        assert!(s.consistent());
        assert!(format!("{s:?}").contains("ViewSession"));
    }

    #[test]
    fn translate_up_then_apply_conceptual_round_trips() {
        let s = machine_shop_session();
        let rop = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let gops = s.translate_up(&rop).unwrap();
        assert_eq!(gops.len(), 1);
        let mut view = s.clone().into_view();
        let rops = view.apply_conceptual(&gops, s.conceptual()).unwrap();
        assert_eq!(rops.len(), 1);
        let after = GraphOp::apply_all(&gops, s.conceptual()).unwrap();
        assert_eq!(after, gfix::figure6_state());
        assert_eq!(view.state(), &rfix::figure7_state());
        assert!(session_over(view, after).consistent());
        // The snapshot the translation ran against is unmoved.
        assert_eq!(s.conceptual(), &gfix::figure4_state());
        assert_eq!(s.state(), &rfix::figure3_state());
    }

    #[test]
    fn translate_up_checks_the_shared_facts() {
        // A snapshot whose view is not equivalent to its facts refuses.
        let conceptual = gfix::figure4_state();
        let view = ExternalView::materialize(
            "shop",
            rfix::machine_shop_schema(),
            &gfix::figure6_state(),
            CompletionMode::StateCompleted,
        )
        .unwrap();
        let s = session_over(view, conceptual);
        let rop = RelOp::insert("Employees", [tuple!["A.New", 30]]);
        assert!(matches!(
            s.translate_up(&rop),
            Err(TranslateError::StatesNotEquivalent(_))
        ));
        assert!(!s.consistent());
    }

    #[test]
    fn rebase_replaces_the_snapshot() {
        let mut s = machine_shop_session();
        let op = GraphOp::InsertAssociation(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
                ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
            ],
        ));
        let moved = op.apply(s.conceptual()).unwrap();
        let fresh = ExternalView::materialize(
            "shop",
            rfix::machine_shop_schema(),
            &moved,
            CompletionMode::StateCompleted,
        )
        .unwrap();
        s.rebase(Arc::new(fresh), Generation::new(moved.clone()));
        assert_eq!(s.conceptual(), &moved);
        assert!(s.consistent());
        assert_eq!(s.into_view().state(), &rfix::figure7_state());
    }
}
