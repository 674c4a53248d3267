//! Differential testing of the symbolic bounded-equivalence tier
//! against the enumerative engine and the pre-arena reference checkers
//! in `slow_reference`.
//!
//! The contract under test: whenever [`SymbolicChecker::run`] returns
//! [`SymbolicOutcome::Definitive`], its verdict — including witnesses,
//! their order, the searched pair count, and pairing/closure *errors* —
//! is **bit-identical** to running the enumerative [`Checker`] facade
//! on the same models. Decide mode hands its SAT-discovered closures to
//! the same engine `Checker` runs, so agreeing with `Checker` alone
//! would only test closure discovery; every differential below also
//! compares against `slow_reference`, which shares no verdict code
//! with the engine. Four proofs:
//!
//! 1. **Corpus differential** — the 64-scenario workload corpus, each
//!    base paired against one of its adversarial mutants, across
//!    Definitions 1/2/3/5 (and Definition 6 grids on scenario sets).
//! 2. **Mutation differential** — every mutation kind the generator can
//!    derive, on dense probe scenarios; a disagreement is greedily
//!    minimized and appended to `proptest-regressions/symbolic.txt`
//!    before the panic (the vendored proptest shim has no shrinking or
//!    persistence of its own).
//! 3. **Random toy models** — proptest over the same toy universe as
//!    `tests/differential.rs`, so the symbolic tier faces the exact
//!    model distribution the enumerative engines were proven on.
//! 4. **Bound soundness** — every witness the find mode produces at
//!    bound *k* replays as a real concrete counterexample: the two
//!    paths execute strictly in the concrete models, meet at the same
//!    fact base, and the probed operation really does disagree there
//!    with every opposite operation.
//!
//! [`SymbolicOutcome::BoundExhausted`] is pinned to mean "no verdict",
//! never "equivalent": the suite asserts it carries no verdict at all
//! and that raising the bound on the same pair yields the enumerative
//! answer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use proptest::prelude::*;

use borkin_equiv::equivalence::equiv::{CheckError, EquivKind};
use borkin_equiv::equivalence::model::FiniteModel;
use borkin_equiv::equivalence::parallel::Verdict;
use borkin_equiv::equivalence::slow_reference;
use borkin_equiv::equivalence::symbolic::{
    SymbolicChecker, SymbolicOp, SymbolicOutcome, SymbolicSpec,
};
use borkin_equiv::equivalence::{Checker, Tier};
use borkin_equiv::logic::{Fact, FactBase};
use borkin_equiv::obs::{Counter, Observer, RingSink};
use borkin_equiv::value::Atom;
use borkin_equiv::workload::scenario::{corpus, Mutation, Scenario, ScenarioConfig, ScenarioOp};

const STATE_CAP: usize = 4096;
/// Deep enough to certify the closure fixpoint of every corpus scenario
/// (toggle count + 1 BFS rounds); see `bound_exhaustion_is_no_verdict`
/// for what happens below that.
const BOUND: usize = 12;

const KINDS: [EquivKind; 3] = [
    EquivKind::Isomorphic,
    EquivKind::Composed { max_depth: 2 },
    EquivKind::StateDependent { max_depth: 2 },
];

/// Every pair tier the symbolic checker must agree on: Definition 1
/// plus the three application-model definitions.
const PAIR_TIERS: [Tier; 4] = [
    Tier::Operation,
    Tier::Isomorphic,
    Tier::Composed { max_depth: 2 },
    Tier::StateDependent { max_depth: 2 },
];

type Model = FiniteModel<FactBase, ScenarioOp>;
type Outcome = Result<Verdict, CheckError>;

/// The enumerative ground truth through the facade.
fn full_check(m: &Model, n: &Model, tier: Tier) -> Outcome {
    Checker::new(m, n).tier(tier).state_cap(STATE_CAP).run()
}

/// The independent oracle for one pair tier.
fn slow_check<O: Clone + std::fmt::Display>(
    m: &FiniteModel<FactBase, O>,
    n: &FiniteModel<FactBase, O>,
    tier: Tier,
) -> Outcome {
    let app = |kind| slow_reference::app_models_verdict_slow(m, n, kind, STATE_CAP);
    match tier {
        Tier::Operation => slow_reference::operation_pairs_verdict_slow(m, n, STATE_CAP),
        Tier::Isomorphic => app(EquivKind::Isomorphic),
        Tier::Composed { max_depth } => app(EquivKind::Composed { max_depth }),
        Tier::StateDependent { max_depth } => app(EquivKind::StateDependent { max_depth }),
        Tier::DataModel { .. } => unreachable!("pair tiers only"),
    }
}

fn symbolic_check(m: &SymbolicSpec, n: &SymbolicSpec, tier: Tier) -> SymbolicOutcome {
    SymbolicChecker::new(m, n)
        .tier(tier)
        .state_cap(STATE_CAP)
        .bound(BOUND)
        .run()
}

/// Unwraps a definitive outcome; the corpus is sized so BOUND always
/// certifies the fixpoint, so exhaustion here is itself a failure.
fn definitive(outcome: SymbolicOutcome, context: &str) -> Outcome {
    match outcome {
        SymbolicOutcome::Definitive(r) => r,
        SymbolicOutcome::BoundExhausted {
            bound,
            states_found,
        } => panic!(
            "{context}: bound {bound} exhausted after {states_found} states — \
             corpus closures must fit the suite bound"
        ),
    }
}

// ---------------------------------------------------------------------
// 1. Corpus differential
// ---------------------------------------------------------------------

/// The 64-scenario corpus, each base against one of its mutants, on a
/// rotating definition plus always Definition 1: symbolic ≡ enumerative
/// bit for bit (verdict, witnesses, errors).
#[test]
fn symbolic_agrees_with_enumerative_on_the_corpus() {
    let scenarios = corpus(0xB05_EED, 64);
    assert!(scenarios.len() >= 64);
    for (i, base) in scenarios.iter().enumerate() {
        let mutations = base.mutations();
        let mutant = base.mutate(mutations[i % mutations.len()]);
        let m = base.model("left");
        let n = mutant.model("right");
        let ms = base.symbolic_spec("left");
        let ns = mutant.symbolic_spec("right");
        for tier in [Tier::from_kind(KINDS[i % KINDS.len()]), Tier::Operation] {
            let full = full_check(&m, &n, tier);
            let sym = definitive(
                symbolic_check(&ms, &ns, tier),
                &format!("scenario {i} tier {tier:?}"),
            );
            assert_eq!(sym, full, "scenario {i} tier {tier:?} diverges");
            assert_eq!(
                sym,
                slow_check(&m, &n, tier),
                "scenario {i} tier {tier:?} diverges from the slow reference"
            );
        }
    }
}

/// Definition 6 grids over scenario *sets*: the symbolic grid must
/// reproduce the enumerative grid's and the slow reference's
/// partial-equivalence verdicts, cell pairing skips included.
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
            let m_specs: Vec<SymbolicSpec> = chunk
                .iter()
                .enumerate()
                .map(|(i, s)| s.symbolic_spec(&format!("m{i}")))
                .collect();
            let n_specs: Vec<SymbolicSpec> = std::iter::once(&mutant)
                .chain(chunk.iter().skip(1))
                .enumerate()
                .map(|(i, s)| s.symbolic_spec(&format!("n{i}")))
                .collect();
            let full = Checker::data_models(&ms, &ns)
                .tier(Tier::DataModel { kind })
                .state_cap(STATE_CAP)
                .run();
            let sym = definitive(
                SymbolicChecker::data_models(&m_specs, &n_specs)
                    .tier(Tier::DataModel { kind })
                    .state_cap(STATE_CAP)
                    .bound(BOUND)
                    .run(),
                &format!("grid kind {kind:?}"),
            );
            assert_eq!(sym, full, "Definition 6 grid diverges for {kind:?}");
            let slow = slow_reference::data_model_verdict_slow(&ms, &ns, kind, STATE_CAP);
            assert_eq!(
                sym, slow,
                "Definition 6 grid diverges from the slow reference for {kind:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. Mutation differential with greedy minimization
// ---------------------------------------------------------------------

/// One differential probe: compare symbolic against enumerative and
/// the slow reference for `base` vs its mutant on every pair tier.
/// Returns a description of the first disagreement.
fn mismatch(base: &Scenario, mutation: Mutation) -> Option<String> {
    let mutant = base.mutate(mutation);
    let m = base.model("left");
    let n = mutant.model("right");
    let ms = base.symbolic_spec("left");
    let ns = mutant.symbolic_spec("right");
    for tier in PAIR_TIERS {
        let full = full_check(&m, &n, tier);
        let sym = match symbolic_check(&ms, &ns, tier) {
            SymbolicOutcome::Definitive(r) => r,
            SymbolicOutcome::BoundExhausted { bound, .. } => {
                return Some(format!("tier {tier:?}: bound {bound} exhausted on a probe"))
            }
        };
        if sym != full {
            return Some(format!("tier {tier:?}: symbolic {sym:?} != full {full:?}"));
        }
        let slow = slow_check(&m, &n, tier);
        if sym != slow {
            return Some(format!("tier {tier:?}: symbolic {sym:?} != slow {slow:?}"));
        }
    }
    None
}

/// Rewrites a mutation's index after removing constraint `removed`;
/// `None` when the mutation targeted it.
fn remap_constraint_removal(mutation: Mutation, removed: usize) -> Option<Mutation> {
    match mutation {
        Mutation::DropConstraint(k) if k == removed => None,
        Mutation::DropConstraint(k) if k > removed => Some(Mutation::DropConstraint(k - 1)),
        other => Some(other),
    }
}

/// Rewrites a mutation's index after removing operation `removed`;
/// `None` when the mutation targeted it.
fn remap_op_removal(mutation: Mutation, removed: usize) -> Option<Mutation> {
    let shift = |k: usize| if k > removed { k - 1 } else { k };
    match mutation {
        Mutation::DropConstraint(_) => Some(mutation),
        Mutation::SwapOpDirection(k) if k != removed => Some(Mutation::SwapOpDirection(shift(k))),
        Mutation::RenameBinding(k) if k != removed => Some(Mutation::RenameBinding(shift(k))),
        Mutation::DropOp(k) if k != removed => Some(Mutation::DropOp(shift(k))),
        _ => None,
    }
}

/// Greedy 1-removal minimizer: keep deleting constraints and operations
/// from the base scenario while the symbolic-vs-enumerative mismatch
/// reproduces.
fn minimize(mut base: Scenario, mut mutation: Mutation) -> (Scenario, Mutation) {
    loop {
        let mut shrunk = false;
        for i in 0..base.constraints.len() {
            if let Some(remapped) = remap_constraint_removal(mutation, i) {
                let mut candidate = base.clone();
                candidate.constraints.remove(i);
                if mismatch(&candidate, remapped).is_some() {
                    base = candidate;
                    mutation = remapped;
                    shrunk = true;
                    break;
                }
            }
        }
        if shrunk {
            continue;
        }
        for i in 0..base.ops.len() {
            if base.ops.len() == 1 {
                break;
            }
            if let Some(remapped) = remap_op_removal(mutation, i) {
                let mut candidate = base.clone();
                candidate.ops.remove(i);
                if mismatch(&candidate, remapped).is_some() {
                    base = candidate;
                    mutation = remapped;
                    shrunk = true;
                    break;
                }
            }
        }
        if !shrunk {
            return (base, mutation);
        }
    }
}

/// Appends a minimized counterexample to
/// `proptest-regressions/symbolic.txt` (human-readable repro record; CI
/// uploads the directory as an artifact on failure).
fn persist_regression(base: &Scenario, mutation: Mutation, detail: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("proptest-regressions");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join("symbolic.txt");
    let mut entry = String::new();
    let _ = writeln!(
        entry,
        "# symbolic-vs-enumerative mismatch (minimized): {detail}"
    );
    let _ = writeln!(entry, "cc mutation={mutation:?} scenario={base:?}");
    if let Ok(mut file) = fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = file.write_all(entry.as_bytes());
    }
    path
}

/// For every mutation kind on every probe scenario, symbolic and
/// enumerative verdicts agree exactly. A disagreement is minimized and
/// persisted before failing.
#[test]
fn every_mutation_kind_matches_the_enumerative_engine() {
    let probes = [
        ScenarioConfig {
            seed: 0x5EB1,
            toggles: 3,
            fact_arity: 2,
            constraint_density: 1.0,
            composite_ops: 2,
        },
        ScenarioConfig {
            seed: 0x5EB2,
            toggles: 4,
            fact_arity: 1,
            constraint_density: 0.5,
            composite_ops: 1,
        },
        ScenarioConfig {
            seed: 0x5EB3,
            toggles: 2,
            fact_arity: 3,
            constraint_density: 1.5,
            composite_ops: 0,
        },
    ];
    let mut covered = std::collections::BTreeSet::new();
    for config in probes {
        let base = Scenario::generate(config);
        for mutation in base.mutations() {
            covered.insert(match mutation {
                Mutation::DropConstraint(_) => "drop-constraint",
                Mutation::SwapOpDirection(_) => "swap-op-direction",
                Mutation::RenameBinding(_) => "rename-binding",
                Mutation::DropOp(_) => "drop-op",
            });
            if let Some(detail) = mismatch(&base, mutation) {
                let (min_base, min_mutation) = minimize(base.clone(), mutation);
                let path = persist_regression(&min_base, min_mutation, &detail);
                panic!(
                    "symbolic differential failed ({detail}); minimized case appended \
                     to {}: mutation {min_mutation:?} on {min_base:?}",
                    path.display()
                );
            }
        }
    }
    assert_eq!(covered.len(), 4, "all four mutation kinds exercised");
}

// ---------------------------------------------------------------------
// 3. Random toy models (proptest)
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

fn tier_strategy() -> impl Strategy<Value = Tier> {
    prop_oneof![
        Just(Tier::Operation),
        Just(Tier::Isomorphic),
        (0usize..3).prop_map(|max_depth| Tier::Composed { max_depth }),
        (0usize..3).prop_map(|max_depth| Tier::StateDependent { max_depth }),
    ]
}

proptest! {
    /// On every random toy-model pair and every tier, the symbolic
    /// verdict equals the enumerative facade's and the slow reference's
    /// — including errors.
    #[test]
    fn symbolic_agrees_on_random_toy_models(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
        tier in tier_strategy(),
    ) {
        let m = toy_model("m", &m_ops);
        let n = toy_model("n", &n_ops);
        let full = Checker::new(&m, &n).tier(tier).state_cap(STATE_CAP).run();
        let slow = slow_check(&m, &n, tier);
        let sym = SymbolicChecker::new(&toy_spec("m", &m_ops), &toy_spec("n", &n_ops))
            .tier(tier)
            .state_cap(STATE_CAP)
            .bound(BOUND)
            .run();
        match sym {
            SymbolicOutcome::Definitive(r) => {
                prop_assert_eq!(&r, &full);
                prop_assert_eq!(r, slow);
            }
            SymbolicOutcome::BoundExhausted { .. } => prop_assert!(
                false,
                "toy closures (≤ 8 states) must close within bound {}",
                BOUND
            ),
        }
    }

    /// Bound soundness of the find mode: every counterexample witness
    /// produced at a finite bound replays concretely — the two paths
    /// execute strictly, meet at the same fact base, and the probed
    /// operation genuinely disagrees there with each opposite operation
    /// its traces name.
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
            let (probe_spec, other_spec) = match cx.side {
                borkin_equiv::equivalence::parallel::Side::Left => (&ms, &ns),
                borkin_equiv::equivalence::parallel::Side::Right => (&ns, &ms),
            };
            prop_assert_eq!(&probe_spec.ops[cx.op_index].label, &cx.label);
            for trace in &cx.traces {
                let at_m = ms.replay(&trace.path_m);
                let at_n = ns.replay(&trace.path_n);
                prop_assert!(at_m.is_some(), "left path must replay strictly");
                prop_assert!(at_n.is_some(), "right path must replay strictly");
                let meet = at_m.unwrap();
                prop_assert_eq!(&meet, &at_n.unwrap(), "paths must meet");
                // The meet replays on both sides, so it lies inside both
                // universes and `apply_op` is exact for either spec.
                let probe_result = probe_spec.apply_op(cx.op_index, &meet);
                let other_result = other_spec.apply_op(trace.vs_op, &meet);
                prop_assert_ne!(
                    probe_result,
                    other_result,
                    "witness claims the ops disagree at the meet state"
                );
            }
            // A found counterexample and a definitive Def-2 verdict on
            // the same pair cannot contradict each other.
            let decide = SymbolicChecker::new(&ms, &ns).bound(BOUND).run();
            if let SymbolicOutcome::Definitive(Ok(verdict)) = decide {
                prop_assert!(
                    matches!(verdict, Verdict::Counterexample { .. }),
                    "find mode found {:?} but decide mode says {:?}",
                    cx,
                    verdict
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Bound semantics and instrumentation
// ---------------------------------------------------------------------

/// `BoundExhausted` is "no verdict", never "equivalent": the outcome
/// carries no `Verdict` at all, and re-running with a sufficient bound
/// produces the enumerative answer — which here is a counterexample the
/// small bound could not see.
#[test]
fn bound_exhaustion_is_no_verdict() {
    let base = Scenario::generate(ScenarioConfig {
        seed: 0xB0B0,
        toggles: 4,
        fact_arity: 1,
        constraint_density: 0.0,
        composite_ops: 0,
    });
    let mutant = base.mutate(Mutation::DropOp(1));
    let ms = base.symbolic_spec("left");
    let ns = mutant.symbolic_spec("right");
    // Closure diameter is 4 (all four facts set), so bound 2 cannot
    // certify the fixpoint on either side.
    let short = SymbolicChecker::new(&ms, &ns).bound(2).run();
    match short {
        SymbolicOutcome::BoundExhausted {
            bound,
            states_found,
        } => {
            assert_eq!(bound, 2);
            assert!(states_found > 0);
        }
        SymbolicOutcome::Definitive(_) => panic!("bound 2 must exhaust on a 4-toggle closure"),
    }
    assert!(short.definitive().is_none(), "exhaustion yields no verdict");
    let long = definitive(
        SymbolicChecker::new(&ms, &ns).bound(BOUND).run(),
        "sufficient bound",
    );
    let full = full_check(
        &base.model("left"),
        &mutant.model("right"),
        Tier::Isomorphic,
    );
    assert_eq!(long, full);
    assert!(
        matches!(long, Ok(Verdict::Counterexample { .. })),
        "the dropped op is exactly what a premature 'equivalent' would have missed"
    );
}

/// The observer counters: clauses and conflicts accumulate on every
/// run; `bound_exhausted` increments only when the bound runs out.
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
    let outcome = SymbolicChecker::new(&ms, &ns)
        .bound(BOUND)
        .observer(obs.clone())
        .run();
    assert!(outcome.definitive().is_some());
    assert!(
        obs.counter(Counter::SymbolicClauses) > 0,
        "encoding emits clauses"
    );
    assert_eq!(obs.counter(Counter::BoundExhausted), 0);
    let exhausted = SymbolicChecker::new(&ms, &ns)
        .bound(1)
        .observer(obs.clone())
        .run();
    assert!(exhausted.is_bound_exhausted());
    assert_eq!(obs.counter(Counter::BoundExhausted), 1);
}
