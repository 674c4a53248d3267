//! Facade parity: every setting of the one engine behind [`Checker`]
//! (plain, `.parallel(..)`, `.budget(..)`) decides the same predicates
//! as the independent `slow_reference` oracle — with the observer
//! enabled and disabled.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use borkin_equiv::equivalence::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use borkin_equiv::equivalence::equiv::EquivKind;
use borkin_equiv::equivalence::model::{graph_model, relational_model, FiniteModel};
use borkin_equiv::equivalence::parallel::{CheckBudget, ParallelConfig, Verdict};
use borkin_equiv::equivalence::slow_reference;
use borkin_equiv::equivalence::witness;
use borkin_equiv::equivalence::{Checker, Tier};
use borkin_equiv::graph::{GraphOp, GraphState};
use borkin_equiv::logic::{Fact, FactBase};
use borkin_equiv::obs::{Counter, Observer, RingSink};
use borkin_equiv::relation::{RelOp, RelationState};
use borkin_equiv::value::Atom;
use borkin_equiv::workload::scenario::corpus;

const STATE_CAP: usize = 4_000;

/// Errors don't implement `PartialEq`; compare through their debug
/// rendering so `Err(Pairing(..))` parity is asserted too.
fn norm<E: std::fmt::Debug>(r: Result<Verdict, E>) -> Result<Verdict, String> {
    r.map_err(|e| format!("{e:?}"))
}

fn fact(n: u8) -> Fact {
    Fact::new("p", [("x", Atom::Int(n as i64))])
}

/// Insert/remove toy models over a small fact universe — cheap enough
/// to sweep every tier over several pairs.
fn toy_model(name: &str, ops: &[(bool, u8)]) -> FiniteModel<FactBase, String> {
    let universe: BTreeMap<String, (bool, Fact)> = ops
        .iter()
        .map(|(add, n)| {
            let f = fact(*n);
            (format!("{}{}", if *add { "+" } else { "-" }, f), (*add, f))
        })
        .collect();
    let op_names: Vec<String> = universe.keys().cloned().collect();
    FiniteModel::new(name, FactBase::default(), op_names, move |op, s| {
        let (add, f) = &universe[op];
        let mut next = s.clone();
        if *add {
            next.insert(f.clone()).then_some(next)
        } else {
            next.remove(f).then_some(next)
        }
    })
}

/// Pairs that exercise equivalent, inequivalent, and asymmetric cases.
fn toy_pairs() -> Vec<(FiniteModel<FactBase, String>, FiniteModel<FactBase, String>)> {
    vec![
        (
            toy_model("m-two", &[(true, 0), (true, 1)]),
            toy_model("n-two", &[(true, 0), (true, 1)]),
        ),
        (
            toy_model("m-two", &[(true, 0), (true, 1)]),
            toy_model("n-one", &[(true, 0)]),
        ),
        (
            toy_model("m-undo", &[(true, 0), (false, 0)]),
            toy_model("n-undo", &[(true, 1), (false, 1)]),
        ),
        (
            toy_model("m-rich", &[(true, 0), (true, 1), (false, 1)]),
            toy_model("n-poor", &[(true, 0), (false, 0)]),
        ),
    ]
}

fn micro_rel() -> FiniteModel<RelationState, RelOp> {
    let schema = witness::micro_relational_schema();
    let ops = enumerate_rel_ops(&schema, 2);
    relational_model("micro-rel", RelationState::empty(Arc::new(schema)), ops)
}

fn mini_rel() -> FiniteModel<RelationState, RelOp> {
    let schema = witness::mini_relational_schema();
    let ops = enumerate_rel_ops(&schema, 2);
    relational_model("mini-rel", RelationState::empty(Arc::new(schema)), ops)
}

fn mini_graph() -> FiniteModel<GraphState, GraphOp> {
    let schema = Arc::new(witness::mini_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    graph_model("mini-graph", GraphState::empty(schema), ops)
}

fn micro_graph() -> FiniteModel<GraphState, GraphOp> {
    let schema = Arc::new(witness::micro_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    graph_model("micro-graph", GraphState::empty(schema), ops)
}

#[test]
fn sequential_and_engine_agree_on_every_toy_pair_and_tier() {
    for (m, n) in toy_pairs() {
        let oracle = slow_reference::operation_pairs_verdict_slow(&m, &n, STATE_CAP);
        let engine = Checker::new(&m, &n)
            .tier(Tier::Operation)
            .state_cap(STATE_CAP)
            .run();
        assert_eq!(norm(oracle), norm(engine), "{}/{}", m.name(), n.name());
        for kind in [
            EquivKind::Isomorphic,
            EquivKind::Composed { max_depth: 1 },
            EquivKind::Composed { max_depth: 2 },
            EquivKind::Composed { max_depth: 3 },
            EquivKind::StateDependent { max_depth: 1 },
            EquivKind::StateDependent { max_depth: 2 },
            EquivKind::StateDependent { max_depth: 3 },
        ] {
            let oracle = slow_reference::app_models_verdict_slow(&m, &n, kind, STATE_CAP);
            let engine = Checker::new(&m, &n)
                .tier(Tier::from_kind(kind))
                .state_cap(STATE_CAP)
                .run();
            assert_eq!(
                norm(oracle),
                norm(engine),
                "{}/{} {kind:?}",
                m.name(),
                n.name()
            );
        }
    }
}

#[test]
fn thread_count_never_changes_the_verdict_on_paper_witness() {
    let m = micro_rel();
    let n = micro_graph();
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let oracle = slow_reference::app_models_verdict_slow(&m, &n, kind, STATE_CAP).unwrap();
    for threads in [1usize, 2, 4] {
        let engine = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(threads))
            .run()
            .unwrap();
        assert_eq!(engine, oracle, "threads {threads}");
    }
}

#[test]
fn data_model_routes_agree_on_paper_witness() {
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let assert_routes_agree =
        |ms: &[FiniteModel<RelationState, RelOp>], ns: &[FiniteModel<GraphState, GraphOp>]| {
            let oracle = slow_reference::data_model_verdict_slow(ms, ns, kind, STATE_CAP).unwrap();
            for threads in [1usize, 2] {
                let engine = Checker::data_models(ms, ns)
                    .tier(Tier::DataModel { kind })
                    .state_cap(STATE_CAP)
                    .parallel(ParallelConfig::with_threads(threads))
                    .run()
                    .unwrap();
                assert_eq!(engine, oracle, "{} models, threads {threads}", ms.len());
            }
        };
    assert_routes_agree(&[micro_rel()], &[micro_graph()]);
    // A swapped `Super` heading compiles the same tuples to other
    // facts, and its states compare equal to the unswapped model's:
    // `Au` must still find no match for its states among g1's.
    assert_routes_agree(
        &[
            common::micro_rel_variant("Ar", true, false),
            common::micro_rel_variant("Au", false, true),
        ],
        &[common::micro_graph_k(0), common::micro_graph_k(1)],
    );
}

/// Pairing once filled a fact interner per side, so the name speaks of
/// interners; each closure is now compiled directly. One and two
/// threads must still reach the same verdict on the paper witness and
/// compile the same, non-empty set of states.
#[test]
fn interners_fill_identically_across_routes() {
    let m = micro_rel();
    let n = micro_graph();
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let [(one_thread, one_compiled), (two_threads, two_compiled)] = [1usize, 2].map(|threads| {
        let obs = Observer::new(RingSink::with_capacity(16));
        let verdict = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(threads))
            .observer(obs.clone())
            .run()
            .unwrap();
        (verdict, obs.counter(Counter::StatesCompiled))
    });
    assert_eq!(one_thread, two_threads);
    assert_eq!(one_compiled, two_compiled);
    let states = m.closure(STATE_CAP).unwrap().len() + n.closure(STATE_CAP).unwrap().len();
    assert_eq!(one_compiled, states as u64, "both closures compiled");
    assert!(one_compiled > 0, "pairing saw the closures");
}

/// Runs `m` against `n` at every tier on one and on two threads, and
/// asserts equal outcomes and that each run compiles every state of
/// both closures exactly once.
fn assert_compiles_once<MS, MO, NS, NO>(m: &FiniteModel<MS, MO>, n: &FiniteModel<NS, NO>)
where
    MS: Clone + Ord + borkin_equiv::logic::ToFacts + Send + Sync,
    NS: Clone + Ord + borkin_equiv::logic::ToFacts + Send + Sync,
    MO: Clone + std::fmt::Display + Send + Sync,
    NO: Clone + std::fmt::Display + Send + Sync,
{
    let states = m.closure(STATE_CAP).unwrap().len() + n.closure(STATE_CAP).unwrap().len();
    let tiers = [
        Tier::Operation,
        Tier::Isomorphic,
        Tier::Composed { max_depth: 2 },
        Tier::StateDependent { max_depth: 2 },
        Tier::DataModel {
            kind: EquivKind::Isomorphic,
        },
    ];
    for tier in tiers {
        let outcomes = [1usize, 2].map(|threads| {
            let obs = Observer::new(RingSink::with_capacity(16));
            let outcome = Checker::new(m, n)
                .tier(tier)
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(threads))
                .observer(obs.clone())
                .run();
            assert_eq!(
                obs.counter(Counter::StatesCompiled),
                states as u64,
                "every closure state compiled once: {}/{} {tier:?} t{threads}",
                m.name(),
                n.name()
            );
            norm(outcome)
        });
        assert_eq!(
            outcomes[0],
            outcomes[1],
            "{}/{} {tier:?}",
            m.name(),
            n.name()
        );
    }
}

/// Pairing once had a route with and one without fact interners, so
/// the name speaks of both; the one route left compiles each closure
/// directly, and must compile each closure state exactly once and reach
/// the same verdict on one and two threads at every tier.
#[test]
fn pairing_with_and_without_interners_agrees_on_every_tier() {
    let (m, n) = (mini_rel(), mini_graph());
    let sizes = [
        m.closure(STATE_CAP).unwrap().len(),
        n.closure(STATE_CAP).unwrap().len(),
    ];
    assert_eq!(sizes, [57, 57], "the mini shop's two closures");
    assert_compiles_once(&m, &n);
    for (i, scenario) in corpus(0xFAC4DE, 12).into_iter().enumerate() {
        let mutations = scenario.mutations();
        let m = scenario.model("left");
        let rights = [
            scenario.model("right"),
            scenario
                .mutate(mutations[i % mutations.len()])
                .model("mutant"),
        ];
        for n in &rights {
            assert_compiles_once(&m, n);
        }
    }
}

#[test]
fn budget_exhaustion_is_deterministic_on_one_thread() {
    let m = micro_rel();
    let n = micro_graph();
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let budget = CheckBudget::nodes(50);
    let first = Checker::new(&m, &n)
        .tier(Tier::from_kind(kind))
        .state_cap(STATE_CAP)
        .budget(budget)
        .run()
        .unwrap();
    let second = Checker::new(&m, &n)
        .tier(Tier::from_kind(kind))
        .state_cap(STATE_CAP)
        .parallel(ParallelConfig::with_threads(1))
        .budget(budget)
        .run()
        .unwrap();
    // `elapsed` is wall-clock and differs between the two runs; a
    // single-threaded budgeted sweep stops at the same node either way.
    match (&first, &second) {
        (
            Verdict::BudgetExhausted {
                nodes_explored: f, ..
            },
            Verdict::BudgetExhausted {
                nodes_explored: l, ..
            },
        ) => assert_eq!(f, l),
        other => panic!("expected both budget-exhausted, got {other:?}"),
    }
}

#[test]
fn observer_enabled_and_disabled_agree_everywhere() {
    let m = micro_rel();
    let n = micro_graph();
    let kind = EquivKind::StateDependent { max_depth: 2 };
    for parallel in [None, Some(ParallelConfig::with_threads(2))] {
        let silent = {
            let mut c = Checker::new(&m, &n)
                .tier(Tier::from_kind(kind))
                .state_cap(STATE_CAP);
            if let Some(config) = parallel {
                c = c.parallel(config);
            }
            c.run().unwrap()
        };
        let ring = RingSink::with_capacity(4096);
        let observed = {
            let mut c = Checker::new(&m, &n)
                .tier(Tier::from_kind(kind))
                .state_cap(STATE_CAP)
                .observer(Observer::new(ring.clone()));
            if let Some(config) = parallel {
                c = c.parallel(config);
            }
            c.run().unwrap()
        };
        assert_eq!(observed, silent, "parallel={}", parallel.is_some());
        assert!(!ring.events().is_empty(), "instrumented run emitted events");
    }
}

#[test]
fn observed_run_lands_in_the_check_latency_histogram() {
    use borkin_equiv::obs::Metric;

    let m = toy_model("m", &[(true, 0), (true, 1)]);
    let n = toy_model("n", &[(true, 0), (true, 1)]);
    let obs = Observer::new(RingSink::with_capacity(64));
    for _ in 0..3 {
        Checker::new(&m, &n).observer(obs.clone()).run().unwrap();
    }
    let snapshots = obs.histograms();
    let check = snapshots
        .iter()
        .find(|(metric, _)| *metric == Metric::CheckLatency)
        .map(|(_, snap)| snap)
        .expect("Checker::run records check_latency_us");
    assert_eq!(check.count, 3);
}

#[test]
fn operation_tier_compares_index_aligned_signatures() {
    let m = toy_model("m", &[(true, 0), (true, 1)]);
    let n = toy_model("n", &[(true, 0), (true, 1)]);
    let verdict = Checker::new(&m, &n).tier(Tier::Operation).run().unwrap();
    assert!(verdict.is_equivalent());

    // Same valid-state closure ({∅, {p(0)}}) but one extra operation on
    // the left: pairing succeeds and the overhang becomes a witness.
    let undo = toy_model("m-undo", &[(true, 0), (false, 0)]);
    let shorter = toy_model("n-short", &[(true, 0)]);
    let verdict = Checker::new(&undo, &shorter)
        .tier(Tier::Operation)
        .run()
        .unwrap();
    assert!(matches!(verdict, Verdict::Counterexample { .. }));
}

/// Acceptance check: a Definition 6 run with the JSON-lines sink
/// produces a machine-readable transcript.
#[test]
fn def6_with_jsonl_sink_writes_machine_readable_transcript() {
    use borkin_equiv::obs::JsonLinesSink;

    let ms = vec![micro_rel()];
    let ns = vec![micro_graph()];
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let path = std::env::temp_dir().join(format!("dme_facade_def6_{}.jsonl", std::process::id()));
    let sink = JsonLinesSink::create(&path).unwrap();
    let verdict = Checker::data_models(&ms, &ns)
        .tier(Tier::DataModel { kind })
        .state_cap(STATE_CAP)
        .parallel(ParallelConfig::with_threads(2))
        .sink(sink)
        .run()
        .unwrap();
    let oracle = slow_reference::data_model_verdict_slow(&ms, &ns, kind, STATE_CAP).unwrap();
    assert_eq!(verdict, oracle);

    let transcript = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!transcript.is_empty());
    for line in transcript.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"ev\""),
            "not a JSON event line: {line}"
        );
    }
}
