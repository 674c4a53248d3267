//! E-P1: the memoized engine at several thread counts on the largest
//! Definition 6 fixture (the E-D6 micro data models) and on the mini
//! machine shop's state-dependent check.
//!
//! Every row runs through the [`Checker`] facade; `t1` is the facade's
//! default route. The bench quantifies what the work-stealing grid
//! driver buys on multi-core hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::Arc;

use dme_core::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use dme_core::equiv::EquivKind;
use dme_core::model::{graph_model, relational_model, FiniteModel};
use dme_core::parallel::ParallelConfig;
use dme_core::witness;
use dme_core::{Checker, Tier};
use dme_graph::{GraphOp, GraphState};
use dme_relation::{RelOp, RelationState, RelationalSchema};

const STATE_CAP: usize = 4_000;

fn rel_model(
    name: &str,
    schema: RelationalSchema,
    max_statements: usize,
) -> FiniteModel<RelationState, RelOp> {
    let ops = enumerate_rel_ops(&schema, max_statements);
    relational_model(name, RelationState::empty(Arc::new(schema)), ops)
}

/// The E-D6 grid's two sides: relational models and graph models.
type D6Fixture = (
    Vec<FiniteModel<RelationState, RelOp>>,
    Vec<FiniteModel<GraphState, GraphOp>>,
);

/// The E-D6 fixture: the largest data-model check in the suite.
fn d6_fixture() -> D6Fixture {
    let ms = vec![
        rel_model("micro-rel", witness::micro_relational_schema(), 2),
        rel_model(
            "micro-rel-supervisors-supervised",
            witness::micro_relational_schema_supervisors_supervised(),
            2,
        ),
    ];
    let ns: Vec<FiniteModel<GraphState, GraphOp>> = witness::all_micro_graph_schemas()
        .into_iter()
        .enumerate()
        .filter(|(_, schema)| schema.participations().all(|(_, p)| !p.total))
        .map(|(i, schema)| {
            let schema = Arc::new(schema);
            let ops = enumerate_graph_ops(&schema);
            graph_model(format!("graph-{i}"), GraphState::empty(schema), ops)
        })
        .collect();
    (ms, ns)
}

fn bench_parallel_equiv(c: &mut Criterion) {
    let kind = EquivKind::StateDependent { max_depth: 3 };
    let mut group = c.benchmark_group("parallel_equiv");
    group.sample_size(10);

    let (ms, ns) = d6_fixture();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("data_model/parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let verdict = Checker::data_models(&ms, &ns)
                        .tier(Tier::DataModel { kind })
                        .state_cap(STATE_CAP)
                        .parallel(ParallelConfig::with_threads(threads))
                        .run()
                        .expect("runs");
                    assert!(!verdict.is_equivalent());
                    verdict
                })
            },
        );
    }

    let m = rel_model("mini-rel", witness::mini_relational_schema(), 2);
    let schema = Arc::new(witness::mini_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    let n = graph_model("mini-graph", GraphState::empty(schema), ops);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("mini_machine_shop/parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let verdict = Checker::new(&m, &n)
                        .tier(Tier::StateDependent { max_depth: 3 })
                        .state_cap(STATE_CAP)
                        .parallel(ParallelConfig::with_threads(threads))
                        .run()
                        .expect("runs");
                    assert!(verdict.is_equivalent());
                    verdict
                })
            },
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_parallel_equiv
}
criterion_main!(benches);
