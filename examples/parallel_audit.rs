//! The parallel, memoized engine end to end — through the unified
//! [`Checker`] facade: verdicts, witnesses, budgets, compile-once
//! pairing, and the observability layer (JSON-lines transcript plus a
//! phase report).
//!
//! ```console
//! $ cargo run --release -p borkin-equiv --example parallel_audit
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use borkin_equiv::equivalence::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use borkin_equiv::equivalence::equiv::EquivKind;
use borkin_equiv::equivalence::model::{graph_model, relational_model, FiniteModel};
use borkin_equiv::equivalence::parallel::{CheckBudget, ParallelConfig, Verdict};
use borkin_equiv::equivalence::witness;
use borkin_equiv::equivalence::{Checker, Tier};
use borkin_equiv::graph::{GraphOp, GraphState};
use borkin_equiv::obs::{Counter, JsonLinesSink, Observer, Report, RingSink};
use borkin_equiv::relation::{RelOp, RelationState};

const STATE_CAP: usize = 4_000;

fn rel_micro(name: &str, max_statements: usize) -> FiniteModel<RelationState, RelOp> {
    let schema = witness::micro_relational_schema();
    let ops = enumerate_rel_ops(&schema, max_statements);
    relational_model(name, RelationState::empty(Arc::new(schema)), ops)
}

fn graph_micro(name: &str) -> FiniteModel<GraphState, GraphOp> {
    let schema = Arc::new(witness::micro_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    graph_model(name, GraphState::empty(schema), ops)
}

fn main() {
    let config = ParallelConfig::with_threads(0); // all cores

    // 1. A passing check: the micro relational and graph models are
    //    state dependent equivalent (Definition 5). The ring sink
    //    records the run; its phase report prints at the end.
    let m = rel_micro("micro-rel", 2);
    let n = graph_micro("micro-graph");
    let ring = RingSink::with_capacity(4096);
    let obs = Observer::new(ring.clone());
    let started = Instant::now();
    let verdict = Checker::new(&m, &n)
        .tier(Tier::StateDependent { max_depth: 3 })
        .state_cap(STATE_CAP)
        .parallel(config)
        .observer(obs.clone())
        .run()
        .expect("checkable");
    println!(
        "[1] Def. 5, rel vs graph:   {verdict}  ({:?})",
        started.elapsed()
    );
    assert!(verdict.is_equivalent());

    // 2. A counterexample with witnesses: the same pair is NOT composed
    //    equivalent (Definition 3) — the idempotent relational insert
    //    has no uniform composition of strict graph operations.
    let verdict = Checker::new(&m, &n)
        .tier(Tier::Composed { max_depth: 3 })
        .state_cap(STATE_CAP)
        .parallel(config)
        .run()
        .expect("checkable");
    println!("[2] Def. 3, rel vs graph:   {verdict}");
    assert!(!verdict.is_equivalent());

    // 3. Early exit: only the first witness, deterministically.
    let verdict = Checker::new(&m, &n)
        .tier(Tier::Composed { max_depth: 3 })
        .state_cap(STATE_CAP)
        .parallel(ParallelConfig::with_threads(0).early_exit())
        .run()
        .expect("checkable");
    println!("[3] …with early exit:       {verdict}");
    assert_eq!(verdict.witnesses().len(), 1);

    // 4. A budgeted run that cannot finish reports exhaustion instead
    //    of guessing.
    let verdict = Checker::new(&m, &n)
        .tier(Tier::StateDependent { max_depth: 3 })
        .state_cap(STATE_CAP)
        .parallel(config)
        .budget(CheckBudget::nodes(1_000))
        .run()
        .expect("checkable");
    println!("[4] …on a 1k-node budget:   {verdict}");
    assert!(matches!(verdict, Verdict::BudgetExhausted { .. }));

    // 5. A Definition 6 grid: each model's closure compiles once for
    //    the whole grid and is paired in every cell. The JSON-lines
    //    sink writes a machine-readable transcript of the whole check.
    let ms = vec![rel_micro("micro-rel", 2), rel_micro("micro-rel-b", 2)];
    let ns = vec![graph_micro("micro-graph")];
    let transcript = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/parallel_audit.jsonl");
    let grid_obs = Observer::new(JsonLinesSink::create(&transcript).expect("transcript file"));
    let verdict = Checker::data_models(&ms, &ns)
        .tier(Tier::DataModel {
            kind: EquivKind::StateDependent { max_depth: 3 },
        })
        .state_cap(STATE_CAP)
        .parallel(config)
        .observer(grid_obs.clone())
        .run()
        .expect("checkable");
    println!("[5] Def. 6, 2x1 grid:       {verdict}");
    let closure_sizes: usize = ms
        .iter()
        .map(|m| m.closure(STATE_CAP).expect("checked above").len())
        .chain(
            ns.iter()
                .map(|n| n.closure(STATE_CAP).expect("checked above").len()),
        )
        .sum();
    let compiled = grid_obs.counter(Counter::StatesCompiled);
    println!("    states compiled: {compiled} (each of the 3 closures once)");
    assert_eq!(compiled, closure_sizes as u64);
    println!("    transcript: {}", transcript.display());

    // The phase report of check [1], from the ring sink.
    let report = Report::from_events(&ring.events()).with_totals(obs.counters());
    println!("\n== check [1] phase report ==\n{report}");
}
