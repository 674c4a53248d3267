//! Differential testing of incremental re-verification against the
//! generated scenario corpus.
//!
//! Two proofs, matching the incremental session's contract, plus a
//! pin that a session moving between models never pairs one model's
//! states with another's compiled facts:
//!
//! 1. **Thread and warmth invariance** — over 64 generated scenarios,
//!    the session returns the one-shot [`Checker`] facade's exact
//!    outcome (verdict, witnesses, or error) at 1, 2 and 4 threads,
//!    cache-cold and cache-warm.
//! 2. **Mutation differential** — for *every* mutation kind the corpus
//!    generator can derive (drop a constraint, swap an operation's
//!    direction, rename a case binding, drop an operation), priming a
//!    session on the base pair and re-checking the mutant
//!    incrementally equals a cold full check and the pre-arena
//!    reference checkers in `slow_reference` (and the cold check
//!    equals the reference at Definition 1 too).
//!    Failing cases are greedily minimized and appended to
//!    `proptest-regressions/incremental.txt` before the panic (the
//!    vendored proptest shim has no shrinking or persistence of its
//!    own, so this suite carries both by hand).

mod common;

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use borkin_equiv::equivalence::equiv::{CheckError, EquivKind};
use borkin_equiv::equivalence::model::FiniteModel;
use borkin_equiv::equivalence::parallel::Verdict;
use borkin_equiv::equivalence::slow_reference;
use borkin_equiv::equivalence::{Checker, IncrementalChecker, Tier};
use borkin_equiv::graph::GraphState;
use borkin_equiv::logic::FactBase;
use borkin_equiv::relation::RelationState;
use borkin_equiv::workload::scenario::{corpus, Mutation, Scenario, ScenarioConfig, ScenarioOp};

const STATE_CAP: usize = 4096;

const KINDS: [EquivKind; 3] = [
    EquivKind::Isomorphic,
    EquivKind::Composed { max_depth: 2 },
    EquivKind::StateDependent { max_depth: 2 },
];

type Model = FiniteModel<FactBase, ScenarioOp>;
type Outcome = Result<Verdict, CheckError>;

/// The one-shot ground truth: the `Checker` facade with a fresh
/// parallel engine.
fn full_check(m: &Model, n: &Model, kind: EquivKind) -> Outcome {
    Checker::new(m, n)
        .tier(Tier::from_kind(kind))
        .state_cap(STATE_CAP)
        .run()
}

fn session() -> IncrementalChecker<FactBase, FactBase> {
    IncrementalChecker::new()
}

/// Satellite: verdicts and witnesses are identical across thread counts
/// and cache warmth on every corpus scenario (base vs. a mutant — the
/// adversarial near-equivalent pairs the generator exists to produce).
#[test]
fn verdicts_survive_threads_and_cache_warmth() {
    let scenarios = corpus(0xB05_EED, 64);
    assert!(scenarios.len() >= 64);
    for (i, base) in scenarios.iter().enumerate() {
        let mutations = base.mutations();
        let mutant = base.mutate(mutations[i % mutations.len()]);
        let m = base.model("left");
        let n = mutant.model("right");
        let kind = KINDS[i % KINDS.len()];
        let full = full_check(&m, &n, kind);
        for threads in [1usize, 2, 4] {
            let mut s = session().with_threads(threads);
            let cold = s.check(&m, &n, kind, STATE_CAP);
            let warm = s.check(&m, &n, kind, STATE_CAP);
            assert_eq!(cold, full, "cold t{threads} diverges on scenario {i}");
            assert_eq!(warm, full, "warm t{threads} diverges on scenario {i}");
            if full.is_ok() {
                assert!(
                    s.stats().verdict_hits >= 1,
                    "warm re-check of scenario {i} missed the verdict cache"
                );
            }
        }
    }
}

/// One differential probe: prime a session on `(base, base)`, mutate the
/// right side, re-check incrementally, and compare against a cold full
/// check and the slow reference. Returns a description of the first
/// disagreement.
fn mismatch(base: &Scenario, mutation: Mutation) -> Option<String> {
    let mutant = base.mutate(mutation);
    let m = base.model("left");
    let n_before = base.model("right");
    let n_after = mutant.model("right");
    for kind in KINDS {
        let mut s = session();
        let _primed = s.check(&m, &n_before, kind, STATE_CAP);
        let incremental = s.check(&m, &n_after, kind, STATE_CAP);
        let full = full_check(&m, &n_after, kind);
        if incremental != full {
            return Some(format!(
                "kind {kind:?}: incremental {incremental:?} != full {full:?}"
            ));
        }
        let slow = slow_reference::app_models_verdict_slow(&m, &n_after, kind, STATE_CAP);
        if full != slow {
            return Some(format!("kind {kind:?}: full {full:?} != slow {slow:?}"));
        }
    }
    let full = Checker::new(&m, &n_after)
        .tier(Tier::Operation)
        .state_cap(STATE_CAP)
        .run();
    let slow = slow_reference::operation_pairs_verdict_slow(&m, &n_after, STATE_CAP);
    if full != slow {
        return Some(format!("Definition 1: full {full:?} != slow {slow:?}"));
    }
    None
}

/// Rewrites a mutation's index after removing constraint `removed` from
/// the base scenario; `None` when the mutation targeted it.
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
/// from the base scenario while the differential mismatch reproduces.
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
/// `proptest-regressions/incremental.txt` (human-readable repro record;
/// CI uploads the directory as an artifact on failure).
fn persist_regression(base: &Scenario, mutation: Mutation, detail: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("proptest-regressions");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join("incremental.txt");
    let mut entry = String::new();
    let _ = writeln!(
        entry,
        "# incremental-vs-full mismatch (minimized): {detail}"
    );
    let _ = writeln!(entry, "cc mutation={mutation:?} scenario={base:?}");
    if let Ok(mut file) = fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = file.write_all(entry.as_bytes());
    }
    path
}

/// Satellite: for every mutation kind on every probe scenario, the
/// incremental re-check, the full enumeration and the slow reference
/// agree exactly, and the full enumeration equals the slow reference at
/// Definition 1. A disagreement is minimized and persisted before
/// failing.
#[test]
fn every_mutation_kind_matches_full_and_reference() {
    // Three scenario shapes, each under two seeds.
    let shapes = [
        ([0xD1FF, 0x5EB1], 3, 2, 1.0, 2),
        ([0xD2FF, 0x5EB2], 4, 1, 0.5, 1),
        ([0xD3FF, 0x5EB3], 2, 3, 1.5, 0),
    ];
    let probes = shapes
        .iter()
        .flat_map(|&(seeds, toggles, arity, density, composites)| {
            seeds.map(|seed| ScenarioConfig {
                seed,
                toggles,
                fact_arity: arity,
                constraint_density: density,
                composite_ops: composites,
            })
        });
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
                    "incremental differential failed ({detail}); minimized case \
                     appended to {}: mutation {min_mutation:?} on {min_base:?}",
                    path.display()
                );
            }
        }
    }
    assert_eq!(covered.len(), 4, "all four mutation kinds exercised");
}

/// A session that moves on to another model re-compiles every state:
/// `Aru`'s states compare equal to `Au`'s, but its swapped `Super`
/// heading compiles them to other facts, so no compilation from the
/// first check may answer for the second.
#[test]
fn a_new_universe_recompiles_states_that_compare_equal() {
    let kind = EquivKind::StateDependent { max_depth: 2 };
    let mut s: IncrementalChecker<RelationState, GraphState> = IncrementalChecker::new();
    for (m, n) in [
        (
            common::micro_rel_variant("Au", false, true),
            common::micro_graph_k(4),
        ),
        (
            common::micro_rel_variant("Aru", true, true),
            common::micro_graph_k(1),
        ),
    ] {
        let cold = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .run();
        assert!(matches!(cold, Ok(Verdict::Equivalent { .. })), "{cold:?}");
        let session = s.check(&m, &n, kind, STATE_CAP);
        assert_eq!(session, cold, "{} vs {}", m.name(), n.name());
    }
}

/// Op mutations take the delta path (columns for unchanged operations
/// are reused); constraint mutations change the model's universe key and
/// invalidate wholesale. Both still agree with the full check — that is
/// the suite above — here we pin the *mechanism*.
#[test]
fn mutations_invalidate_exactly_the_affected_frontier() {
    let base = Scenario::generate(ScenarioConfig {
        seed: 0xF00D,
        toggles: 4,
        fact_arity: 2,
        constraint_density: 0.75,
        composite_ops: 2,
    });
    assert!(!base.constraints.is_empty());

    // Swap one operation's direction: every other column is reusable.
    let swapped = base.mutate(Mutation::SwapOpDirection(0));
    let mut s = session();
    s.check(
        &base.model("left"),
        &base.model("right"),
        EquivKind::Isomorphic,
        STATE_CAP,
    )
    .unwrap();
    let primed = s.stats();
    let after = s.check(
        &base.model("left"),
        &swapped.model("right"),
        EquivKind::Isomorphic,
        STATE_CAP,
    );
    assert_eq!(
        after,
        full_check(
            &base.model("left"),
            &swapped.model("right"),
            EquivKind::Isomorphic
        )
    );
    let stats = s.stats();
    // Exactly one column is new: the swapped operation's, computed once
    // per reachable right state. The unchanged left closure and every
    // other right column are reused entry for entry.
    let left = base.model("left");
    let right = swapped.model("right");
    let left_len = left.closure(STATE_CAP).unwrap().len();
    let right_len = right.closure(STATE_CAP).unwrap().len();
    let ops = right.ops().len();
    assert_eq!(left.ops().len(), ops);
    assert_eq!(
        stats.transitions_recomputed - primed.transitions_recomputed,
        right_len as u64,
        "op mutation recomputes exactly the swapped column: {stats:?}"
    );
    assert_eq!(
        stats.transitions_reused - primed.transitions_reused,
        (left_len * ops + right_len * (ops - 1)) as u64,
        "op mutation reuses every unchanged entry: {stats:?}"
    );
    assert_eq!(stats.invalidations, 0, "op mutation keeps the universe");

    // Drop a constraint: the universe key changes, the cache rebuilds.
    let relaxed = base.mutate(Mutation::DropConstraint(0));
    let before = s.stats();
    let after = s.check(
        &base.model("left"),
        &relaxed.model("right"),
        EquivKind::Isomorphic,
        STATE_CAP,
    );
    assert_eq!(
        after,
        full_check(
            &base.model("left"),
            &relaxed.model("right"),
            EquivKind::Isomorphic
        )
    );
    assert_eq!(
        s.stats().invalidations,
        before.invalidations + 1,
        "constraint mutation must invalidate the right-side closure cache"
    );
}
