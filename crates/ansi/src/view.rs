//! External views: relational application models kept in lockstep.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use dme_core::translate::{
    graph_facts_to_relational, graph_op_failed, materialize_relational_state, CompletionMode,
    TranslateError,
};
use dme_graph::{GraphOp, GraphState};
use dme_logic::{FactBase, ToFacts};
use dme_relation::{RelOp, RelationState, RelationalSchema};

/// One external schema of the architecture: a semantic relation
/// application model materialized over the conceptual state.
///
/// Cloning a view snapshots it: the clone shares the schema (`Arc`) but
/// owns its state, which is what a session needs to translate against a
/// stable picture while the original keeps moving.
#[derive(Clone)]
pub struct ExternalView {
    name: String,
    schema: Arc<RelationalSchema>,
    state: RelationState,
    mode: CompletionMode,
}

impl fmt::Debug for ExternalView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExternalView({}, {} relations, {} statements)",
            self.name,
            self.schema.len(),
            self.state.len()
        )
    }
}

impl ExternalView {
    /// Materializes a view over the current conceptual state.
    pub fn materialize(
        name: impl Into<String>,
        schema: RelationalSchema,
        conceptual: &GraphState,
        mode: CompletionMode,
    ) -> Result<Self, TranslateError> {
        Self::materialize_facts(name, schema, &conceptual.to_facts(), mode)
    }

    /// [`ExternalView::materialize`] over a compiled conceptual state
    /// (`conceptual.to_facts()`), so a caller materializing several
    /// views compiles the state once.
    pub fn materialize_facts(
        name: impl Into<String>,
        schema: RelationalSchema,
        conceptual_facts: &FactBase,
        mode: CompletionMode,
    ) -> Result<Self, TranslateError> {
        let schema = Arc::new(schema);
        let state = materialize_relational_state(&schema, conceptual_facts)?;
        Ok(ExternalView {
            name: name.into(),
            schema,
            state,
            mode,
        })
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view's application-model schema.
    pub fn schema(&self) -> &Arc<RelationalSchema> {
        &self.schema
    }

    /// A snapshot of the view's current state.
    pub fn state(&self) -> &RelationState {
        &self.state
    }

    /// The completion mode used when translating updates into this view.
    pub fn mode(&self) -> CompletionMode {
        self.mode
    }

    /// Applies committed conceptual operations to the replica:
    /// translates one operation at a time against the evolving
    /// `(conceptual, view)` state pair — each translation must see a
    /// paired snapshot — applies the translations, and returns them so
    /// callers can journal or audit the relational-side schedule.
    ///
    /// `before` is the conceptual state the first operation applies to.
    /// Each operation is applied once, and each conceptual state it
    /// passes through compiled once. An error reports what
    /// [`dme_core::translate::graph_op_to_relational`] would report for
    /// the failing step (a pair that is not equivalent before the
    /// operation's own failure), and the view keeps the steps before it.
    pub fn apply_conceptual(
        &mut self,
        gops: &[GraphOp],
        before: &GraphState,
    ) -> Result<Vec<RelOp>, TranslateError> {
        let mut applied = Vec::new();
        let mut cursor = before.clone();
        let mut facts = before.to_facts();
        for gop in gops {
            if let Err(e) = GraphOp::apply_all_delta([gop], &mut cursor) {
                return Err(graph_op_failed(&facts, &self.state, e));
            }
            let after = cursor.to_facts();
            applied.extend(self.apply_conceptual_facts(&[&facts, &after])?);
            facts = after;
        }
        Ok(applied)
    }

    /// [`ExternalView::apply_conceptual`] on compiled conceptual states:
    /// `generations[0]` is the fact base (`to_facts`) of the state the
    /// first operation applies to, and `generations[i]` that of the
    /// state after the `i`-th operation. A caller advancing several
    /// views over one commit compiles each state once and hands every
    /// view the same list. Every step still checks the view against the
    /// state before it and verifies the translation against the state
    /// after it (see [`graph_facts_to_relational`]). On an error the
    /// view keeps the steps before the failing one.
    pub fn apply_conceptual_facts<F: Borrow<FactBase>>(
        &mut self,
        generations: &[F],
    ) -> Result<Vec<RelOp>, TranslateError> {
        let mut applied = Vec::new();
        for pair in generations.windows(2) {
            let step = graph_facts_to_relational(
                pair[0].borrow(),
                pair[1].borrow(),
                &self.state,
                self.mode,
            )?;
            self.state = RelOp::apply_all(&step, &self.state)
                .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
            applied.extend(step);
        }
        Ok(applied)
    }

    /// Checks this view against the conceptual state: equivalence within
    /// the view's vocabulary (for a subset view, facts the view cannot
    /// express are out of scope).
    pub fn consistent_with(&self, conceptual: &GraphState) -> bool {
        self.consistent_with_facts(&conceptual.to_facts())
    }

    /// [`ExternalView::consistent_with`] on a pre-compiled conceptual
    /// fact base, so a caller auditing many views compiles the
    /// conceptual state once (`to_facts`) and passes the result to
    /// each view.
    pub fn consistent_with_facts(&self, conceptual_facts: &FactBase) -> bool {
        self.state.to_facts() == self.schema.vocabulary().filter(conceptual_facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_graph::fixtures as gfix;
    use dme_graph::unit::deletion_unit;
    use dme_graph::{Association, EntityRef};
    use dme_relation::fixtures as rfix;
    use dme_value::Atom;

    #[test]
    fn subset_views_skip_invisible_commits() {
        let conceptual = gfix::figure4_state();
        let mut view = ExternalView::materialize(
            "personnel",
            rfix::personnel_schema(),
            &conceptual,
            CompletionMode::Minimal,
        )
        .unwrap();
        let before = view.state().clone();
        // A machine-unit deletion is invisible to the personnel view.
        let unit = deletion_unit(
            &conceptual,
            [EntityRef::new("machine", Atom::str("NZ745"))],
            [],
        );
        let gops = [GraphOp::DeleteUnit(unit)];
        let rops = view.apply_conceptual(&gops, &conceptual).unwrap();
        assert!(rops.is_empty());
        assert_eq!(view.state(), &before);
        let after = GraphOp::apply_all(&gops, &conceptual).unwrap();
        assert!(view.consistent_with(&after));
    }

    #[test]
    fn a_multi_op_commit_advances_one_step_per_op() {
        let conceptual = gfix::figure4_state();
        let mut view = ExternalView::materialize(
            "shop",
            rfix::machine_shop_schema(),
            &conceptual,
            CompletionMode::StateCompleted,
        )
        .unwrap();
        let supervise = |agent: &str, object: &str| {
            Association::new(
                "supervise",
                [
                    ("agent", EntityRef::new("employee", Atom::str(agent))),
                    ("object", EntityRef::new("employee", Atom::str(object))),
                ],
            )
        };
        let gops = [
            GraphOp::InsertAssociation(supervise("G.Wayshum", "T.Manhart")),
            GraphOp::DeleteAssociation(supervise("G.Wayshum", "T.Manhart")),
        ];
        let rops = view.apply_conceptual(&gops, &conceptual).unwrap();
        assert_eq!(rops.len(), 2, "one insert, then one delete");
        assert_eq!(view.state(), &rfix::figure3_state());
        // An op that errors on the conceptual side leaves the view as it was.
        let err = view.apply_conceptual(&gops[1..], &conceptual).unwrap_err();
        assert!(matches!(err, TranslateError::SourceOpFailed(_)), "{err}");
        assert_eq!(view.state(), &rfix::figure3_state());
        // The view keeps the steps before a failing one.
        let failing = [gops[0].clone(), gops[0].clone()];
        let err = view.apply_conceptual(&failing, &conceptual).unwrap_err();
        assert!(matches!(err, TranslateError::SourceOpFailed(_)), "{err}");
        assert_eq!(view.state(), &rfix::figure7_state());
    }

    #[test]
    fn a_view_out_of_step_is_reported_before_a_failing_op() {
        // The view holds Figure 7 (the supervision inserted); the
        // conceptual state is Figure 4, where deleting it fails.
        let mut view = ExternalView::materialize(
            "shop",
            rfix::machine_shop_schema(),
            &gfix::figure6_state(),
            CompletionMode::StateCompleted,
        )
        .unwrap();
        let conceptual = gfix::figure4_state();
        let ghost = Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
                ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
            ],
        );
        let gops = [GraphOp::DeleteAssociation(ghost)];
        let err = view.apply_conceptual(&gops, &conceptual).unwrap_err();
        assert!(
            matches!(err, TranslateError::StatesNotEquivalent(_)),
            "{err}"
        );
        let per_call = dme_core::translate::graph_op_to_relational(
            &gops[0],
            &conceptual,
            view.state(),
            view.mode(),
        )
        .unwrap_err();
        assert!(
            matches!(per_call, TranslateError::StatesNotEquivalent(_)),
            "{per_call}"
        );
        assert_eq!(view.state(), &rfix::figure7_state());
    }
}
