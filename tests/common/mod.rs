//! Micro-scale witness models shared by the facade and incremental
//! suites: variants of `witness::micro_relational_schema()` whose states
//! compare equal to the original's while compiling to other facts.

use std::sync::Arc;

use borkin_equiv::equivalence::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use borkin_equiv::equivalence::model::{graph_model, relational_model, FiniteModel};
use borkin_equiv::equivalence::witness;
use borkin_equiv::graph::{GraphOp, GraphState};
use borkin_equiv::relation::{Constraint, RelOp, RelationSchema, RelationState, RelationalSchema};

/// The micro relational model, rebuilt from the witness schema's parts:
/// with `Super`'s two participants swapped when `swapped` (the same
/// tuples then assert supervision the other way round), and with
/// `Super`'s first column unique when `unique`. One-statement
/// operations.
pub fn micro_rel_variant(
    name: &str,
    swapped: bool,
    unique: bool,
) -> FiniteModel<RelationState, RelOp> {
    let base = witness::micro_relational_schema();
    let relations = base.relations().map(|r| {
        let mut participants = r.participants().to_vec();
        if swapped && r.name() == "Super" {
            participants.reverse();
        }
        RelationSchema::new(r.name().clone(), participants)
    });
    let mut constraints = base.constraints().to_vec();
    if unique {
        constraints.push(Constraint::Unique {
            relation: "Super".into(),
            columns: vec![0],
        });
    }
    let schema = RelationalSchema::new(base.universe().clone(), relations, constraints)
        .expect("micro variant is well-formed");
    let ops = enumerate_rel_ops(&schema, 1);
    relational_model(name, RelationState::empty(Arc::new(schema)), ops)
}

/// The graph model over `witness::all_micro_graph_schemas()[k]`: g0 has
/// both supervise roles optional, g1 a functional object, g4 a
/// functional agent.
pub fn micro_graph_k(k: usize) -> FiniteModel<GraphState, GraphOp> {
    let schema = Arc::new(witness::all_micro_graph_schemas().swap_remove(k));
    let ops = enumerate_graph_ops(&schema);
    graph_model(format!("g{k}"), GraphState::empty(schema), ops)
}
