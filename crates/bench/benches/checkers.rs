//! E-D2…E-D6: the cost of the equivalence decision procedures
//! (Definitions 2, 3, 5 and 6) on the micro witness models.
//!
//! These are the paper's "explicit enumeration of an extremely large
//! number of equivalent pairs" made concrete: closure enumeration, state
//! pairing through fact compilation, and signature search. The
//! translator benches (op_translate.rs) are the "algorithm" alternative
//! the paper prefers; comparing the two quantifies its point. All
//! checks run through the [`Checker`] facade on its default route (one
//! engine thread: no `.parallel()` configured).

use criterion::{criterion_group, criterion_main, Criterion};

use std::sync::Arc;

use dme_core::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use dme_core::model::{graph_model, relational_model};
use dme_core::witness;
use dme_core::{Checker, Tier};
use dme_graph::GraphState;
use dme_relation::RelationState;

const STATE_CAP: usize = 10_000;

fn rel_micro(
    max_statements: usize,
) -> dme_core::model::FiniteModel<RelationState, dme_relation::RelOp> {
    let schema = witness::micro_relational_schema();
    let ops = enumerate_rel_ops(&schema, max_statements);
    relational_model("micro", RelationState::empty(Arc::new(schema)), ops)
}

fn rel_micro_renamed() -> dme_core::model::FiniteModel<RelationState, dme_relation::RelOp> {
    let schema = witness::micro_relational_schema_renamed();
    let ops = enumerate_rel_ops(&schema, 2);
    relational_model("micro-renamed", RelationState::empty(Arc::new(schema)), ops)
}

fn graph_micro() -> dme_core::model::FiniteModel<GraphState, dme_graph::GraphOp> {
    let schema = Arc::new(witness::micro_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    graph_model("micro-graph", GraphState::empty(schema), ops)
}

fn bench_checkers(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkers");
    group.sample_size(10);

    group.bench_function("isomorphic/renamed_pair", |b| {
        let m = rel_micro(2);
        let n = rel_micro_renamed();
        b.iter(|| {
            let verdict = Checker::new(&m, &n)
                .tier(Tier::Isomorphic)
                .state_cap(STATE_CAP)
                .run()
                .expect("runs");
            assert!(verdict.is_equivalent());
            verdict
        })
    });

    group.bench_function("composed/singles_vs_pairs", |b| {
        let m = rel_micro(1);
        let n = rel_micro(2);
        b.iter(|| {
            let verdict = Checker::new(&m, &n)
                .tier(Tier::Composed { max_depth: 2 })
                .state_cap(STATE_CAP)
                .run()
                .expect("runs");
            assert!(verdict.is_equivalent());
            verdict
        })
    });

    group.bench_function("state_dependent/rel_vs_graph", |b| {
        let m = rel_micro(2);
        let n = graph_micro();
        b.iter(|| {
            let verdict = Checker::new(&m, &n)
                .tier(Tier::StateDependent { max_depth: 3 })
                .state_cap(STATE_CAP)
                .run()
                .expect("runs");
            assert!(verdict.is_equivalent());
            verdict
        })
    });

    group.bench_function("closure/micro_relational", |b| {
        let m = rel_micro(2);
        b.iter(|| m.reachable_states(10_000).expect("fits"))
    });

    group.bench_function("closure/micro_graph", |b| {
        let n = graph_micro();
        b.iter(|| n.reachable_states(10_000).expect("fits"))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_checkers
}
criterion_main!(benches);
