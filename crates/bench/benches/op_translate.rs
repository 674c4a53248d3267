//! E-F6/F7/F8: operation translation between the data models, and the
//! DESIGN.md ablation of completion modes.
//!
//! * `graph_to_rel/minimal` — the state-independent translation (nulls
//!   padded, normalization absorbs the state dependence);
//! * `graph_to_rel/state_completed` — the paper's literal Figures 7/8
//!   tuples, consulting the current state;
//! * `rel_to_graph` — the reverse direction;
//! * `…/precompiled` — the same translations on conceptual states whose
//!   fact bases are already compiled (`graph_facts_to_relational`,
//!   `relational_op_to_compiled_graph`), as the session service runs
//!   them: it compiles each conceptual state once and shares it with
//!   every view and snapshot. The gap to the wrapper is the compiles
//!   the wrapper pays per call.
//!
//! Each translation includes the verification step (apply + fact
//! compare against the pre- and post-states), i.e. the numbers are for
//! *certified* translations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dme_core::translate::{
    graph_facts_to_relational, graph_op_to_relational, relational_op_to_compiled_graph,
    relational_op_to_graph, CompletionMode,
};
use dme_logic::ToFacts;
use dme_workload::{
    graph_state, relational_state, supervision_toggle_ops, supervision_toggle_rel_ops, ShopConfig,
};

fn bench_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("op_translate");
    for n in [10usize, 50, 100] {
        let cfg = ShopConfig::scaled(n);
        let g = graph_state(cfg);
        let r = relational_state(cfg);
        let gop = &supervision_toggle_ops(cfg, 1)[0];
        let rop = &supervision_toggle_rel_ops(cfg, 1)[0];
        let before = g.to_facts();
        let after = gop.apply(&g).expect("the toggle applies").to_facts();

        group.bench_with_input(BenchmarkId::new("graph_to_rel/minimal", n), &n, |b, _| {
            b.iter(|| {
                graph_op_to_relational(
                    black_box(gop),
                    black_box(&g),
                    black_box(&r),
                    CompletionMode::Minimal,
                )
                .expect("translates")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("graph_to_rel/state_completed", n),
            &n,
            |b, _| {
                b.iter(|| {
                    graph_op_to_relational(
                        black_box(gop),
                        black_box(&g),
                        black_box(&r),
                        CompletionMode::StateCompleted,
                    )
                    .expect("translates")
                })
            },
        );
        for (name, mode) in [
            ("graph_to_rel/minimal/precompiled", CompletionMode::Minimal),
            (
                "graph_to_rel/state_completed/precompiled",
                CompletionMode::StateCompleted,
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    graph_facts_to_relational(
                        black_box(&before),
                        black_box(&after),
                        black_box(&r),
                        mode,
                    )
                    .expect("translates")
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("rel_to_graph", n), &n, |b, _| {
            b.iter(|| {
                relational_op_to_graph(black_box(rop), black_box(&r), black_box(&g))
                    .expect("translates")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("rel_to_graph/precompiled", n),
            &n,
            |b, _| {
                b.iter(|| {
                    relational_op_to_compiled_graph(
                        black_box(rop),
                        black_box(&r),
                        black_box(&g),
                        black_box(&before),
                    )
                    .expect("translates")
                })
            },
        );
    }
    group.finish();
}

fn bench_translation_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("op_translate_stream");
    group.sample_size(10);
    let cfg = ShopConfig::scaled(50);
    let ops = supervision_toggle_ops(cfg, 20);
    group.bench_function("20_ops_lockstep", |b| {
        b.iter(|| {
            let mut g = graph_state(cfg);
            let mut r = relational_state(cfg);
            for op in &ops {
                let rops = graph_op_to_relational(op, &g, &r, CompletionMode::Minimal)
                    .expect("translates");
                g = op.apply(&g).expect("applies");
                r = dme_relation::RelOp::apply_all(&rops, &r).expect("applies");
            }
            (g, r)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_translation, bench_translation_stream
}
criterion_main!(benches);
