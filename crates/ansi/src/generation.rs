//! One conceptual generation: a committed conceptual state and its
//! compiled fact base, shared by every view that translates against it.

use std::sync::{Arc, OnceLock};

use dme_graph::GraphState;
use dme_logic::{FactBase, ToFacts};

/// A conceptual state paired with its compiled fact base (`to_facts`).
///
/// The fact base is compiled from the state on first use and forgotten
/// whenever the state changes through [`Generation::state_mut`], so it
/// is always the compile of the state beside it: no caller pairs the
/// two by hand, and a user that never asks for the facts never compiles.
/// Cloning shares both (`Arc`): a snapshot of a generation is two
/// reference bumps, not a state clone or a compile.
#[derive(Clone)]
pub struct Generation {
    state: Arc<GraphState>,
    facts: OnceLock<Arc<FactBase>>,
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (entities, associations) = self.state.sizes();
        write!(
            f,
            "Generation({entities} entities, {associations} associations, compiled: {})",
            self.facts.get().is_some()
        )
    }
}

impl Generation {
    /// A generation of `state`, not compiled yet.
    pub fn new(state: impl Into<Arc<GraphState>>) -> Self {
        Generation {
            state: state.into(),
            facts: OnceLock::new(),
        }
    }

    /// The conceptual state.
    pub fn state(&self) -> &Arc<GraphState> {
        &self.state
    }

    /// The state's fact base, compiled on the first call and shared by
    /// every clone made after it.
    pub fn facts(&self) -> &Arc<FactBase> {
        self.facts.get_or_init(|| Arc::new(self.state.to_facts()))
    }

    /// The state, for changing it in place: copy-on-write (a state
    /// still shared with a clone is copied once), and the compiled fact
    /// base is forgotten, so the next [`Generation::facts`] compiles
    /// the changed state.
    pub fn state_mut(&mut self) -> &mut GraphState {
        self.facts = OnceLock::new();
        Arc::make_mut(&mut self.state)
    }

    /// Whether the compiled fact base, if there is one, equals a fresh
    /// compile of the state: the invariant this type keeps, for
    /// debug assertions and tests.
    pub fn facts_are_fresh(&self) -> bool {
        self.facts
            .get()
            .is_none_or(|facts| **facts == self.state.to_facts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_graph::fixtures as gfix;
    use dme_graph::GraphOp;

    #[test]
    fn facts_follow_the_state() {
        let mut g = Generation::new(gfix::figure4_state());
        assert!(g.facts_are_fresh());
        assert_eq!(**g.facts(), gfix::figure4_state().to_facts());
        let snapshot = g.clone();
        let unit = dme_graph::unit::deletion_unit(
            g.state(),
            [dme_graph::EntityRef::new(
                "machine",
                dme_value::Atom::str("NZ745"),
            )],
            [],
        );
        GraphOp::apply_all_delta([&GraphOp::DeleteUnit(unit)], g.state_mut()).unwrap();
        assert!(g.facts_are_fresh());
        assert_eq!(**g.facts(), g.state().to_facts());
        assert_ne!(g.facts(), snapshot.facts());
        // The snapshot kept its state and its compile.
        assert_eq!(**snapshot.state(), gfix::figure4_state());
        assert!(snapshot.facts_are_fresh());
    }
}
