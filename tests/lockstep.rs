//! Property tests: the translators keep multi-model databases in
//! lockstep over random operation sequences.
//!
//! This is Definition 4 (state dependent operation equivalence) tested
//! constructively: for a random walk of graph operations from Figure 4,
//! every step's translation applied to the relational replica must land
//! on a state-equivalent pair — and vice versa for random relational
//! walks.

use borkin_equiv::ansi::{ExternalView, Generation, ViewSession};
use borkin_equiv::equivalence::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use borkin_equiv::equivalence::translate::{
    graph_facts_to_relational, graph_op_to_relational, relational_op_to_graph, CompletionMode,
    TranslateError,
};
use borkin_equiv::equivalence::witness;
use borkin_equiv::graph::{Entity, GraphOp, GraphState};
use borkin_equiv::logic::{state_equivalent, Fact, FactBase, ToFacts};
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::{RelOp, RelationState, RelationalSchema};
use borkin_equiv::value::Atom;
use proptest::prelude::*;
use std::sync::Arc;

fn graph_setup() -> (GraphState, Vec<GraphOp>) {
    let schema = Arc::new(witness::mini_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    (GraphState::empty(schema), ops)
}

fn rel_setup() -> (RelationState, Vec<RelOp>) {
    let schema = witness::mini_relational_schema();
    let ops = enumerate_rel_ops(&schema, 2);
    (RelationState::empty(Arc::new(schema)), ops)
}

/// The personnel subset view (§1.2: employees and supervisions; machines
/// and operate associations are invisible) over the mini universe.
fn mini_personnel_schema() -> RelationalSchema {
    let personnel = rfix::personnel_schema();
    RelationalSchema::new(
        witness::mini_universe(),
        personnel.relations().cloned(),
        personnel.constraints().to_vec(),
    )
    .expect("the personnel relations fit the mini universe")
}

/// The views a shared generation serves: the full mini shop in both
/// completion modes, and the personnel subset view.
fn shared_view_specs() -> Vec<(RelationalSchema, CompletionMode)> {
    vec![
        (
            witness::mini_relational_schema(),
            CompletionMode::StateCompleted,
        ),
        (witness::mini_relational_schema(), CompletionMode::Minimal),
        (mini_personnel_schema(), CompletionMode::Minimal),
    ]
}

/// A one-employee graph state over the mini universe and the fact base
/// of the same state without that employee's age.
fn one_employee_without_age() -> (GraphState, FactBase) {
    let schema = Arc::new(witness::mini_graph_schema());
    let employee = GraphOp::InsertEntity(Entity::new(
        "employee",
        [("name", Atom::str("A.Alpha")), ("age", Atom::Int(30))],
    ));
    let graph = employee
        .apply(&GraphState::empty(schema))
        .expect("the mini universe has employee A.Alpha aged 30");
    let mut ageless = graph.to_facts();
    let age: Fact = ageless
        .iter()
        .find(|f| f.get("value") == Some(&Atom::Int(30)))
        .cloned()
        .expect("the state asserts the age");
    ageless.remove(&age);
    (graph, ageless)
}

/// A view that is not equivalent to the shared facts it is handed is
/// refused before anything is translated, even when the delta itself
/// would translate.
#[test]
fn shared_facts_translation_checks_the_pre_state() {
    let (graph, _) = one_employee_without_age();
    let empty = GraphState::empty(Arc::clone(graph.schema()));
    let view = ExternalView::materialize(
        "shop",
        witness::mini_relational_schema(),
        &empty,
        CompletionMode::StateCompleted,
    )
    .expect("the empty state materializes");
    // The view is empty, but the "before" facts carry the employee.
    let err = graph_facts_to_relational(
        &graph.to_facts(),
        &graph.to_facts(),
        view.state(),
        CompletionMode::StateCompleted,
    )
    .unwrap_err();
    assert!(
        matches!(err, TranslateError::StatesNotEquivalent(_)),
        "{err}"
    );
}

/// A plan whose result misses a fact of the post-state is refused:
/// dropping only an employee's age has no relational denial (Employees
/// carries name and age together), so the plan deletes the stored
/// statement, which loses the employee's existence too.
#[test]
fn shared_facts_translation_checks_the_post_state() {
    let (graph, ageless) = one_employee_without_age();
    let view = ExternalView::materialize(
        "shop",
        witness::mini_relational_schema(),
        &graph,
        CompletionMode::StateCompleted,
    )
    .expect("the one-employee state materializes");
    let err = graph_facts_to_relational(
        &graph.to_facts(),
        &ageless,
        view.state(),
        CompletionMode::StateCompleted,
    )
    .unwrap_err();
    // Refused by the equivalence check, not by a failing relational op.
    assert!(
        matches!(&err, TranslateError::VerificationFailed(why) if why.contains("NOT equivalent")),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One compiled fact base per generation, shared by every view, is
    /// an optimisation only: along a random graph walk, each view fed
    /// the shared generations returns exactly the `RelOp`s and states
    /// the per-call wrappers (which compile both states themselves)
    /// return, a snapshot's `translate_up` over the shared facts equals
    /// `relational_op_to_graph`, and every generation — compiled from
    /// the state the walk mutates in place, as the service does — equals
    /// a fresh compile of the independently applied state.
    #[test]
    fn shared_generation_facts_match_the_per_call_wrappers(
        choices in prop::collection::vec(0usize..1000, 1..10),
        rel_choice in 0usize..10_000,
    ) {
        let (mut graph, gops) = graph_setup();
        let specs = shared_view_specs();
        let rops: Vec<Vec<RelOp>> =
            specs.iter().map(|(schema, _)| enumerate_rel_ops(schema, 2)).collect();
        let mut generation = Generation::new(graph.clone());
        let mut facts = Arc::clone(generation.facts());
        let mut shared = Vec::new();
        let mut per_call = Vec::new();
        for (schema, mode) in &specs {
            let view = ExternalView::materialize_facts("v", schema.clone(), &facts, *mode)
                .expect("the empty state materializes");
            per_call.push(view.clone());
            shared.push(Arc::new(view));
        }
        for c in choices {
            let op = (0..gops.len())
                .map(|d| &gops[(c + d) % gops.len()])
                .find(|op| op.apply(&graph).is_ok())
                .unwrap_or(&gops[c % gops.len()]);
            // The oracle post-state: a pure apply, compiled afresh.
            let Ok(oracle) = op.apply(&graph) else {
                for (view, (_, mode)) in per_call.iter().zip(&specs) {
                    let err = graph_op_to_relational(op, &graph, view.state(), *mode);
                    prop_assert!(matches!(err, Err(TranslateError::SourceOpFailed(_))));
                }
                continue;
            };
            // The shared generation: the state mutated in place, compiled once.
            GraphOp::apply_all_delta([op], generation.state_mut()).expect("the op applies");
            prop_assert_eq!(&**generation.state(), &oracle);
            let next = Arc::clone(generation.facts());
            prop_assert_eq!(&*next, &oracle.to_facts());
            prop_assert!(generation.facts_are_fresh());
            for i in 0..specs.len() {
                let mode = specs[i].1;
                let wrapped = graph_op_to_relational(op, &graph, per_call[i].state(), mode);
                let cored = graph_facts_to_relational(&facts, &next, shared[i].state(), mode);
                prop_assert_eq!(&cored, &wrapped);
                let applied = per_call[i].apply_conceptual(std::slice::from_ref(op), &graph);
                prop_assert_eq!(&applied, &wrapped);
                let advanced =
                    Arc::make_mut(&mut shared[i]).apply_conceptual_facts(&[&*facts, &*next]);
                prop_assert_eq!(&advanced, &wrapped);
                prop_assert_eq!(shared[i].state(), per_call[i].state());
                prop_assert!(per_call[i].consistent_with(&oracle), "{op} left view {i} behind");
                // The relational direction over the same generation.
                let snapshot = ViewSession::over(Arc::clone(&shared[i]), generation.clone());
                let rop = &rops[i][rel_choice % rops[i].len()];
                prop_assert_eq!(
                    snapshot.translate_up(rop),
                    relational_op_to_graph(rop, per_call[i].state(), &oracle)
                );
            }
            graph = oracle;
            facts = next;
        }
    }

    /// Random graph walks stay in lockstep with their translated
    /// relational replica, in both completion modes.
    #[test]
    fn graph_walk_keeps_replicas_equivalent(
        choices in prop::collection::vec(0usize..1000, 1..12),
        state_completed in any::<bool>(),
    ) {
        let (mut graph, gops) = graph_setup();
        let (mut rel, _) = rel_setup();
        let mode = if state_completed {
            CompletionMode::StateCompleted
        } else {
            CompletionMode::Minimal
        };
        for c in choices {
            // Prefer an applicable operation near the chosen index so the
            // walk makes progress; fall back to the erroring one.
            let op = (0..gops.len())
                .map(|d| &gops[(c + d) % gops.len()])
                .find(|op| op.apply(&graph).is_ok())
                .unwrap_or(&gops[c % gops.len()]);
            match graph_op_to_relational(op, &graph, &rel, mode) {
                Ok(rops) => {
                    graph = op.apply(&graph).expect("translator verified source op");
                    rel = RelOp::apply_all(&rops, &rel).expect("translator verified target ops");
                    let eq = state_equivalent(&graph, &rel);
                    prop_assert!(eq.is_equivalent(), "diverged after {op}: {eq}");
                }
                Err(TranslateError::SourceOpFailed(_)) => {
                    // The op errors on the graph side: both replicas stay.
                    prop_assert!(op.apply(&graph).is_err());
                }
                Err(e) => prop_assert!(false, "translation failed for {op}: {e}"),
            }
        }
    }

    /// Random relational walks stay in lockstep with their translated
    /// graph replica.
    #[test]
    fn relational_walk_keeps_replicas_equivalent(
        choices in prop::collection::vec(0usize..10_000, 1..10),
    ) {
        let (mut graph, _) = graph_setup();
        let (mut rel, rops) = rel_setup();
        for c in choices {
            let op = (0..rops.len())
                .map(|d| &rops[(c + d) % rops.len()])
                .find(|op| op.apply(&rel).is_ok())
                .unwrap_or(&rops[c % rops.len()]);
            match relational_op_to_graph(op, &rel, &graph) {
                Ok(gops) => {
                    rel = op.apply(&rel).expect("translator verified source op");
                    graph = GraphOp::apply_all(&gops, &graph)
                        .expect("translator verified target ops");
                    let eq = state_equivalent(&rel, &graph);
                    prop_assert!(eq.is_equivalent(), "diverged after {op}: {eq}");
                }
                Err(TranslateError::SourceOpFailed(_)) => {
                    prop_assert!(op.apply(&rel).is_err());
                }
                Err(e) => prop_assert!(false, "translation failed for {op}: {e}"),
            }
        }
    }

    /// Insert-statements is idempotent: applying the same insertion twice
    /// equals applying it once (and the second application translates to
    /// the empty graph composition).
    #[test]
    fn repeated_insert_is_idempotent(
        choices in prop::collection::vec(0usize..10_000, 1..6),
    ) {
        let (mut rel, rops) = rel_setup();
        for c in choices {
            let op = &rops[c % rops.len()];
            if let Ok(next) = op.apply(&rel) {
                if matches!(op, RelOp::Insert(_)) {
                    prop_assert_eq!(op.apply(&next).ok(), Some(next.clone()));
                }
                rel = next;
            }
        }
    }
}
