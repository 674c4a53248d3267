//! External views: relational application models kept in lockstep.

use std::fmt;
use std::sync::Arc;

use dme_core::translate::{
    graph_op_to_relational, materialize_relational_state, CompletionMode, TranslateError,
};
use dme_graph::{GraphOp, GraphState};
use dme_logic::{state_equivalent, FactBase, ToFacts};
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
        let schema = Arc::new(schema);
        let state = materialize_relational_state(&schema, &conceptual.to_facts())?;
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

    /// Translates a conceptual operation into this view's terms (without
    /// applying it).
    pub fn plan(
        &self,
        op: &GraphOp,
        conceptual: &GraphState,
    ) -> Result<Vec<RelOp>, TranslateError> {
        graph_op_to_relational(op, conceptual, &self.state, self.mode)
    }

    /// Applies pre-translated operations to the replica.
    pub fn apply(&mut self, ops: &[RelOp]) -> Result<(), TranslateError> {
        let next = RelOp::apply_all(ops, &self.state)
            .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
        self.state = next;
        Ok(())
    }

    /// Applies committed conceptual operations to the replica:
    /// translates one operation at a time against the evolving
    /// `(conceptual, view)` state pair — each translation must see a
    /// paired snapshot — applies the translations, and returns them so
    /// callers can journal or audit the relational-side schedule.
    ///
    /// `before` is the conceptual state the first operation applies to.
    pub fn apply_conceptual(
        &mut self,
        gops: &[GraphOp],
        before: &GraphState,
    ) -> Result<Vec<RelOp>, TranslateError> {
        let mut applied = Vec::new();
        let mut cursor = before.clone();
        for gop in gops {
            let step = graph_op_to_relational(gop, &cursor, &self.state, self.mode)?;
            self.apply(&step)?;
            cursor = gop
                .apply(&cursor)
                .map_err(|e| TranslateError::SourceOpFailed(e.to_string()))?;
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
        let vocab = self.schema.vocabulary();
        state_equivalent(&self.state, &vocab.filter(conceptual_facts)).is_equivalent()
    }
}
