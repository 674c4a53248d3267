//! Soundness of the symbolic tier's find mode against the enumerative
//! engine, and the engine's corpus differentials against the
//! pre-arena reference checkers in `slow_reference`.
//!
//! The contract under test: a counterexample
//! [`SymbolicChecker::find_counterexample`] returns at bound *k* is a
//! real one. Its traces replay strictly in the concrete models, meet at
//! the same fact base, and the probed operation disagrees there with
//! every opposite operation its traces name; and the [`Checker`]
//! facade's Definition 2 verdict on the same pair is "not equivalent",
//! naming the same operation. `Ok(None)` is inconclusive, never
//! "equivalent". Four proofs:
//!
//! 1. **Corpus differential** — the 64-scenario workload corpus, each
//!    base paired against one of its adversarial mutants: the facade
//!    equals `slow_reference` across Definitions 1/2/3/5, and every
//!    counterexample find mode reports on the pair's symbolic specs
//!    (constraints and composite operations included) replays and is
//!    one the facade reports too.
//! 2. **Definition 6 grids** — scenario sets through the facade and
//!    `slow_reference`, cell pairing skips included.
//! 3. **Bound soundness** — proptest over the toy universe of
//!    `tests/differential.rs`: every witness find mode produces replays
//!    concretely and is a witness of the facade's verdict.
//! 4. **Bound contract** — on a pair whose divergence first shows at
//!    depth *k*, bound *k − 1* finds nothing (inconclusive) and bound
//!    *k* finds the witness the facade reports.

use std::collections::BTreeMap;

use proptest::prelude::*;

use borkin_equiv::equivalence::equiv::{CheckError, EquivKind};
use borkin_equiv::equivalence::model::FiniteModel;
use borkin_equiv::equivalence::parallel::{Side, Verdict};
use borkin_equiv::equivalence::slow_reference;
use borkin_equiv::equivalence::symbolic::{
    FoundCounterexample, SymbolicChecker, SymbolicOp, SymbolicSpec,
};
use borkin_equiv::equivalence::{Checker, Tier};
use borkin_equiv::logic::{Fact, FactBase};
use borkin_equiv::obs::{Counter, Metric, Observer, RingSink};
use borkin_equiv::value::Atom;
use borkin_equiv::workload::scenario::{
    corpus, Mutation, Scenario, ScenarioConfig, ScenarioConstraint, ScenarioOp,
};

const STATE_CAP: usize = 4096;
/// Find mode's path bound on the corpus: every corpus state lies
/// within it.
const BOUND: usize = 12;

const KINDS: [EquivKind; 3] = [
    EquivKind::Isomorphic,
    EquivKind::Composed { max_depth: 2 },
    EquivKind::StateDependent { max_depth: 2 },
];

type Model = FiniteModel<FactBase, ScenarioOp>;
type Outcome = Result<Verdict, CheckError>;

/// The enumerative ground truth through the facade.
fn full_check<O: Clone + std::fmt::Display + Send + Sync>(
    m: &FiniteModel<FactBase, O>,
    n: &FiniteModel<FactBase, O>,
    tier: Tier,
) -> Outcome {
    Checker::new(m, n).tier(tier).state_cap(STATE_CAP).run()
}

/// The independent oracle for one pair tier.
fn slow_check(m: &Model, n: &Model, tier: Tier) -> Outcome {
    let app = |kind| slow_reference::app_models_verdict_slow(m, n, kind, STATE_CAP);
    match tier {
        Tier::Operation => slow_reference::operation_pairs_verdict_slow(m, n, STATE_CAP),
        Tier::Isomorphic => app(EquivKind::Isomorphic),
        Tier::Composed { max_depth } => app(EquivKind::Composed { max_depth }),
        Tier::StateDependent { max_depth } => app(EquivKind::StateDependent { max_depth }),
        Tier::DataModel { .. } => unreachable!("pair tiers only"),
    }
}

/// Why `cx` is not a concrete counterexample of `ms` vs `ns`, if it is
/// not one: each trace's paths must execute strictly, meet at one fact
/// base, and the probed operation must disagree there with the
/// opposite operation the trace names.
fn replay_failure(
    ms: &SymbolicSpec,
    ns: &SymbolicSpec,
    cx: &FoundCounterexample,
) -> Option<String> {
    let (probe, other) = match cx.side {
        Side::Left => (ms, ns),
        Side::Right => (ns, ms),
    };
    if probe.ops[cx.op_index].label != cx.label {
        return Some(format!("label {} is not op {}", cx.label, cx.op_index));
    }
    for trace in &cx.traces {
        let (Some(at_m), Some(at_n)) = (ms.replay(&trace.path_m), ns.replay(&trace.path_n)) else {
            return Some(format!("{trace:?} does not replay strictly"));
        };
        if at_m != at_n {
            return Some(format!("{trace:?} paths do not meet"));
        }
        // The meet replays on both sides, so it lies inside both
        // universes and `apply_op` is exact for either spec.
        if probe.apply_op(cx.op_index, &at_m) == other.apply_op(trace.vs_op, &at_m) {
            return Some(format!("{trace:?}: the ops agree at the meet state"));
        }
    }
    None
}

/// Whether the facade's Definition 2 outcome refutes equivalence the
/// way `cx` does: a counterexample naming the same operation, or a
/// pairing failure (the two closures express different states).
fn facade_refutes(isomorphic: &Outcome, cx: &FoundCounterexample) -> bool {
    match isomorphic {
        Ok(Verdict::Counterexample { witnesses, .. }) => witnesses.contains(&cx.to_witness()),
        Err(CheckError::Pairing(_)) => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// 1. Corpus differential
// ---------------------------------------------------------------------

/// The 64-scenario corpus, each base against one of its mutants: the
/// facade equals the slow reference on a rotating definition plus
/// always Definition 1, and find mode's counterexample, if any, replays
/// and is among the facade's Definition 2 witnesses.
#[test]
fn symbolic_agrees_with_enumerative_on_the_corpus() {
    let scenarios = corpus(0xB05_EED, 64);
    assert!(scenarios.len() >= 64);
    let mut found = 0usize;
    for (i, base) in scenarios.iter().enumerate() {
        let mutations = base.mutations();
        let mutant = base.mutate(mutations[i % mutations.len()]);
        let m = base.model("left");
        let n = mutant.model("right");
        for tier in [Tier::from_kind(KINDS[i % KINDS.len()]), Tier::Operation] {
            assert_eq!(
                full_check(&m, &n, tier),
                slow_check(&m, &n, tier),
                "scenario {i} tier {tier:?} diverges from the slow reference"
            );
        }
        let ms = base.symbolic_spec("left");
        let ns = mutant.symbolic_spec("right");
        let cx = SymbolicChecker::new(&ms, &ns)
            .bound(BOUND)
            .find_counterexample()
            .unwrap_or_else(|e| panic!("scenario {i}: corpus specs encode: {e}"));
        if let Some(cx) = cx {
            found += 1;
            if let Some(why) = replay_failure(&ms, &ns, &cx) {
                panic!("scenario {i}: find-mode witness is not concrete: {why}");
            }
            let isomorphic = full_check(&m, &n, Tier::Isomorphic);
            assert!(
                facade_refutes(&isomorphic, &cx),
                "scenario {i}: find mode found {cx:?} but the facade says {isomorphic:?}"
            );
        }
    }
    assert!(found > 0, "the mutants give find mode something to find");
}

/// Definition 6 grids over scenario *sets*: the facade's grid verdict
/// equals the slow reference's partial-equivalence verdict, cell
/// pairing skips included.
#[test]
fn symbolic_agrees_on_data_model_grids() {
    let scenarios = corpus(0x6121D, 8);
    for kind in KINDS {
        for chunk in scenarios.chunks(4) {
            let ms: Vec<Model> = chunk
                .iter()
                .enumerate()
                .map(|(i, s)| s.model(&format!("m{i}")))
                .collect();
            let mutant = chunk[0].mutate(chunk[0].mutations()[0]);
            let ns: Vec<Model> = std::iter::once(&mutant)
                .chain(chunk.iter().skip(1))
                .enumerate()
                .map(|(i, s)| s.model(&format!("n{i}")))
                .collect();
            let full = Checker::data_models(&ms, &ns)
                .tier(Tier::DataModel { kind })
                .state_cap(STATE_CAP)
                .run();
            let slow = slow_reference::data_model_verdict_slow(&ms, &ns, kind, STATE_CAP);
            assert_eq!(
                full, slow,
                "Definition 6 grid diverges from the slow reference for {kind:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. Bound soundness on random toy models (proptest)
// ---------------------------------------------------------------------

fn fact(n: u8) -> Fact {
    Fact::new("p", [("x", Atom::Int(n as i64))])
}

/// The toy-model universe of `tests/differential.rs`: label-sorted
/// single-step insert/delete operations over a 3-fact universe.
fn toy_universe(ops: &[(bool, u8)]) -> BTreeMap<String, (bool, Fact)> {
    ops.iter()
        .map(|(add, n)| {
            let f = fact(*n);
            (format!("{}{}", if *add { "+" } else { "-" }, f), (*add, f))
        })
        .collect()
}

fn toy_model(name: &str, ops: &[(bool, u8)]) -> FiniteModel<FactBase, String> {
    let universe = toy_universe(ops);
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

/// The same toy model as a symbolic spec — identical labels, identical
/// op order, identical strict semantics.
fn toy_spec(name: &str, ops: &[(bool, u8)]) -> SymbolicSpec {
    let mut facts: Vec<Fact> = Vec::new();
    let ops: Vec<SymbolicOp> = toy_universe(ops)
        .into_iter()
        .map(|(label, (add, f))| {
            let v = match facts.iter().position(|g| *g == f) {
                Some(i) => i,
                None => {
                    facts.push(f);
                    facts.len() - 1
                }
            };
            SymbolicOp {
                label,
                steps: vec![(add, v)],
            }
        })
        .collect();
    SymbolicSpec {
        name: name.to_owned(),
        facts,
        ops,
        constraints: Vec::new(),
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<(bool, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..3), 1..6)
}

proptest! {
    /// Bound soundness of the find mode: every counterexample witness
    /// produced at a finite bound replays concretely — the two paths
    /// execute strictly, meet at the same fact base, and the probed
    /// operation genuinely disagrees there with each opposite operation
    /// its traces name — and the facade's Definition 2 verdict on the
    /// toy models reports the same operation.
    #[test]
    fn find_mode_witnesses_replay_concretely(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
    ) {
        let ms = toy_spec("m", &m_ops);
        let ns = toy_spec("n", &n_ops);
        let found = SymbolicChecker::new(&ms, &ns)
            .bound(3)
            .find_counterexample()
            .unwrap();
        if let Some(cx) = found {
            let why = replay_failure(&ms, &ns, &cx);
            prop_assert!(why.is_none(), "witness is not concrete: {:?}", why);
            let isomorphic = full_check(
                &toy_model("m", &m_ops),
                &toy_model("n", &n_ops),
                Tier::Isomorphic,
            );
            prop_assert!(
                facade_refutes(&isomorphic, &cx),
                "find mode found {:?} but the facade says {:?}",
                cx,
                isomorphic
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. Bound contract and instrumentation
// ---------------------------------------------------------------------

/// An exhausted bound is "no verdict", never "equivalent". Four facts
/// chained by `Requires` (f3 needs f2 needs f1 needs f0) put the only
/// state holding f3 at depth 4, and the mutant's delete of f3 toggles
/// a fact nothing inserts, so it errors everywhere: the pair first
/// diverges at depth k = 4. Bound k − 1 finds nothing, bound k finds
/// the delete, and the facade agrees the pair is not equivalent.
#[test]
fn bound_exhaustion_is_no_verdict() {
    const K: usize = 4;
    let mut base = Scenario::generate(ScenarioConfig {
        seed: 0xB0B0,
        toggles: K,
        fact_arity: 1,
        constraint_density: 0.0,
        composite_ops: 0,
    });
    base.constraints = base
        .facts
        .windows(2)
        .map(|w| ScenarioConstraint::Requires {
            a: w[1].clone(),
            b: w[0].clone(),
        })
        .collect();
    let deepest = base.facts[K - 1].clone();
    let delete = base
        .ops
        .iter()
        .position(|op| op.steps == [(false, deepest.clone())])
        .expect("every toggle has a delete");
    let mutant = base.mutate(Mutation::RenameBinding(delete));
    let ms = base.symbolic_spec("left");
    let ns = mutant.symbolic_spec("right");

    let short = SymbolicChecker::new(&ms, &ns)
        .bound(K - 1)
        .find_counterexample()
        .unwrap();
    assert_eq!(short, None, "no witness within bound {}", K - 1);

    let cx = SymbolicChecker::new(&ms, &ns)
        .bound(K)
        .find_counterexample()
        .unwrap()
        .expect("the divergence lies within bound K");
    assert_eq!((cx.side, cx.op_index), (Side::Left, delete));
    if let Some(why) = replay_failure(&ms, &ns, &cx) {
        panic!("witness is not concrete: {why}");
    }
    let twin = cx.traces.iter().find(|t| t.vs_op == delete).unwrap();
    assert_eq!(twin.path_m.len(), K, "the twins first differ at depth K");

    let isomorphic = full_check(
        &base.model("left"),
        &mutant.model("right"),
        Tier::Isomorphic,
    );
    assert!(
        matches!(isomorphic, Ok(Verdict::Counterexample { .. }))
            && facade_refutes(&isomorphic, &cx),
        "the facade must report the delete, got {isomorphic:?}"
    );
}

/// The observer counters: every find-mode query adds its clauses,
/// conflicts and restarts, and one observation to each per-query probe
/// histogram, whose sums the counters equal.
#[test]
fn symbolic_counters_reach_the_observer() {
    let base = Scenario::generate(ScenarioConfig {
        seed: 0xC0C0,
        toggles: 3,
        fact_arity: 1,
        constraint_density: 0.5,
        composite_ops: 1,
    });
    let ms = base.symbolic_spec("left");
    let ns = base.symbolic_spec("right");
    let obs = Observer::new(RingSink::with_capacity(64));
    let found = SymbolicChecker::new(&ms, &ns)
        .bound(BOUND)
        .observer(obs.clone())
        .find_counterexample()
        .unwrap();
    assert_eq!(found, None, "a scenario matches itself");
    assert!(
        obs.counter(Counter::SymbolicClauses) > 0,
        "encoding emits clauses"
    );
    // Equal twins: one UNSAT query per operation and side.
    let queries = 2 * ms.ops.len() as u64;
    for (counter, probe) in [
        (Counter::SymbolicClauses, Metric::SymbolicClausesPerDepth),
        (
            Counter::SymbolicConflicts,
            Metric::SymbolicConflictsPerDepth,
        ),
        (Counter::SymbolicRestarts, Metric::SymbolicRestartsPerDepth),
    ] {
        let histogram = obs.histogram(probe);
        assert_eq!(histogram.count, queries, "{probe:?} observes every query");
        assert_eq!(
            obs.counter(counter),
            histogram.sum,
            "{counter:?} totals {probe:?}"
        );
    }
    assert_eq!(
        obs.histogram(Metric::SymbolicDecisionsPerDepth).count,
        queries
    );
    assert_eq!(obs.counter(Counter::WitnessesFound), 0);
}
