//! The deferred-validation split of the semantic-model wrappers.
//!
//! `relational_model` and `graph_model` both install
//! `FiniteModel::with_candidate`: the closure enumerator applies an
//! operation without the final constraint or schema validation and
//! validates only candidates that miss the arena. These tests pin that
//! the split changes nothing observable: each closure has the same
//! states, in the same discovery order, and the same transition table
//! as the closure of a plain clone-apply `FiniteModel::new` model built
//! from the same operations.

use std::sync::Arc;

use borkin_equiv::equivalence::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use borkin_equiv::equivalence::model::{graph_model, relational_model, FiniteModel};
use borkin_equiv::equivalence::witness;
use borkin_equiv::graph::{GraphOp, GraphSchema, GraphState};
use borkin_equiv::relation::{RelOp, RelationState};

const CAP: usize = 4096;

/// Asserts that two closures agree state for state and transition for
/// transition.
fn assert_same_closure<S, O>(split: &FiniteModel<S, O>, plain: &FiniteModel<S, O>)
where
    S: Clone + Ord + std::hash::Hash + std::fmt::Debug + borkin_equiv::logic::ToFacts + Send,
    O: Clone,
{
    let a = split.closure(CAP).expect("closure fits under the cap");
    let b = plain.closure(CAP).expect("closure fits under the cap");
    assert_eq!(
        a.arena.states(),
        b.arena.states(),
        "{}: states",
        split.name()
    );
    assert_eq!(
        a.transitions,
        b.transitions,
        "{}: transitions",
        split.name()
    );
}

fn plain_graph(
    name: &str,
    initial: GraphState,
    ops: Vec<GraphOp>,
) -> FiniteModel<GraphState, GraphOp> {
    FiniteModel::new(name, initial, ops, |op, state| op.apply(state).ok())
}

fn graph_pair(name: &str, schema: GraphSchema) -> [FiniteModel<GraphState, GraphOp>; 2] {
    let schema = Arc::new(schema);
    let ops = enumerate_graph_ops(&schema);
    let initial = GraphState::empty(schema);
    [
        graph_model(name, initial.clone(), ops.clone()),
        plain_graph(name, initial, ops),
    ]
}

#[test]
fn graph_split_matches_clone_apply_on_the_mini_schema() {
    let [split, plain] = graph_pair("mini-graph", witness::mini_graph_schema());
    assert_same_closure(&split, &plain);
}

#[test]
fn graph_split_matches_clone_apply_on_every_micro_schema() {
    for (i, schema) in witness::all_micro_graph_schemas().into_iter().enumerate() {
        let [split, plain] = graph_pair(&format!("micro-graph-{i}"), schema);
        assert_same_closure(&split, &plain);
    }
}

#[test]
fn graph_split_matches_clone_apply_on_the_supervision_powerset() {
    let k = 5;
    let cfg = dme_workload::ShopConfig {
        employees: 2 * k,
        machines: 0,
        supervisions: 0,
        seed: 42,
    };
    let ops = dme_workload::supervision_closure_ops(cfg, k);
    let initial = dme_workload::graph_state(cfg);
    let split = graph_model("powerset", initial.clone(), ops.clone());
    let plain = plain_graph("powerset", initial, ops);
    assert_same_closure(&split, &plain);
    assert_eq!(split.closure(CAP).unwrap().len(), 1 << k);
}

/// The mini relational closure keeps its size and probe economics, and
/// its split matches clone-apply too.
#[test]
fn relational_split_matches_clone_apply_on_the_mini_schema() {
    let schema = witness::mini_relational_schema();
    let ops = enumerate_rel_ops(&schema, 2);
    let initial = RelationState::empty(Arc::new(schema));
    let split = relational_model("mini-rel", initial.clone(), ops.clone());
    let plain: FiniteModel<RelationState, RelOp> =
        FiniteModel::new("mini-rel", initial, ops, |op, state| op.apply(state).ok());
    assert_same_closure(&split, &plain);
    let closure = split.closure(CAP).unwrap();
    assert_eq!(closure.len(), 57);
    let stats = closure.arena.stats();
    assert_eq!((stats.hits, stats.misses), (6979, 57));
}
