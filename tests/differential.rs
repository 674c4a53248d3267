//! Differential testing: the memoized engine must agree with itself
//! across thread counts and with the independent pre-arena oracle in
//! `slow_reference` — same verdicts, same witness sets, same errors —
//! on randomly generated finite application models, across every
//! checker tier (Definitions 1, 2, 3, 5 and 6).
//!
//! The engine is driven through the [`Checker`] facade; without
//! `.parallel()` it runs on one deterministic thread. The "sequential"
//! side of every comparison below is `slow_reference`'s BTreeSet
//! checkers, which share no code with the engine's arena or
//! signature algebra.
//!
//! The generated models are the checker-plumbing toys from the unit
//! suites: states are fact bases, operations insert or delete one fact
//! from a small universe, so closures stay tiny while still exercising
//! non-onto pairings, error states, idempotence asymmetries and partial
//! data-model matches.

use std::collections::BTreeMap;

use proptest::prelude::*;

use borkin_equiv::equivalence::equiv::{CheckError, EquivKind};
use borkin_equiv::equivalence::model::FiniteModel;
use borkin_equiv::equivalence::parallel::{CheckBudget, ParallelConfig, Verdict};
use borkin_equiv::equivalence::{slow_reference, Checker, Tier};
use borkin_equiv::logic::{Fact, FactBase};
use borkin_equiv::value::Atom;

const STATE_CAP: usize = 512;

fn fact(n: u8) -> Fact {
    Fact::new("p", [("x", Atom::Int(n as i64))])
}

/// A model over fact-base states whose operations each insert or delete
/// one fact; strict (inserting a present fact, or deleting an absent
/// one, is the error state).
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

/// Random operation sets over a 3-fact universe: small enough that the
/// closure is at most 2^3 states, rich enough to produce equivalent,
/// inequivalent and unpairable model pairs.
fn ops_strategy() -> impl Strategy<Value = Vec<(bool, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..3), 1..6)
}

fn kind_strategy() -> impl Strategy<Value = EquivKind> {
    prop_oneof![
        Just(EquivKind::Isomorphic),
        (0usize..3).prop_map(|max_depth| EquivKind::Composed { max_depth }),
        (0usize..3).prop_map(|max_depth| EquivKind::StateDependent { max_depth }),
    ]
}

proptest! {
    /// Tier 2/3/5 differential: on every random model pair and every
    /// definition, the engine at 1, 2 and 4 threads returns the
    /// sequential BTreeSet checkers' exact outcome (the independent
    /// oracle in `slow_reference`) — same witnesses in the same order,
    /// and the exact pairing/closure error when the pair cannot be
    /// checked.
    #[test]
    fn parallel_engine_agrees_with_sequential_checkers(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
        kind in kind_strategy(),
    ) {
        let m = toy_model("m", &m_ops);
        let n = toy_model("n", &n_ops);
        let sequential = slow_reference::app_models_verdict_slow(&m, &n, kind, STATE_CAP);
        for threads in [1usize, 2, 4] {
            let parallel = Checker::new(&m, &n)
                .tier(Tier::from_kind(kind))
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(threads))
                .run();
            prop_assert_eq!(&parallel, &sequential, "engine at {} threads", threads);
        }
    }

    /// Early exit keeps soundness: whenever the full engine finds
    /// counterexamples, the early-exit engine reports a counterexample
    /// too, and its single witness is the full engine's first witness.
    #[test]
    fn early_exit_returns_the_first_full_witness(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
        kind in kind_strategy(),
    ) {
        let m = toy_model("m", &m_ops);
        let n = toy_model("n", &n_ops);
        let full = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(4))
            .run();
        let early = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(4).early_exit())
            .run();
        match (&full, &early) {
            (Ok(full_verdict), Ok(early_verdict)) => {
                prop_assert_eq!(
                    full_verdict.is_equivalent(),
                    early_verdict.is_equivalent()
                );
                if let Verdict::Counterexample { witnesses, .. } = full_verdict {
                    prop_assert_eq!(early_verdict.witnesses(), &witnesses[..1]);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "full {:?} vs early {:?}", full, early),
        }
    }

    /// Tier 6 differential: on multi-model data models (several models
    /// per side, so many-to-one matches), the engine's grid at 1, 2 and
    /// 4 threads returns the sequential BTreeSet grid's exact verdict —
    /// the same unmatched application models, in declaration order.
    #[test]
    fn parallel_data_model_check_agrees_with_sequential(
        m_sets in prop::collection::vec(ops_strategy(), 1..3),
        n_sets in prop::collection::vec(ops_strategy(), 1..3),
        kind in kind_strategy(),
    ) {
        let ms: Vec<_> = m_sets
            .iter()
            .enumerate()
            .map(|(i, ops)| toy_model(&format!("m{i}"), ops))
            .collect();
        let ns: Vec<_> = n_sets
            .iter()
            .enumerate()
            .map(|(i, ops)| toy_model(&format!("n{i}"), ops))
            .collect();
        let sequential = slow_reference::data_model_verdict_slow(&ms, &ns, kind, STATE_CAP);
        for threads in [1usize, 2, 4] {
            let verdict = Checker::data_models(&ms, &ns)
                .tier(Tier::DataModel { kind })
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(threads))
                .run();
            prop_assert_eq!(&verdict, &sequential, "grid at {} threads", threads);
        }
    }

    /// Slow-reference differential: the arena engine, on one thread and
    /// on four, returns byte-identical verdicts to the pre-arena
    /// BTreeSet checkers preserved in
    /// `borkin_equiv::equivalence::slow_reference`, across Definitions
    /// 1/2/3/5 and the Definition 6 grid.
    #[test]
    fn arena_engines_match_the_slow_reference(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
        kind in kind_strategy(),
    ) {
        let m = toy_model("m", &m_ops);
        let n = toy_model("n", &n_ops);
        let slow = slow_reference::app_models_verdict_slow(&m, &n, kind, STATE_CAP);
        let arena_seq = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .run();
        let arena_par = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(4))
            .run();
        prop_assert_eq!(&arena_seq, &slow, "one-thread arena engine vs slow reference");
        prop_assert_eq!(&arena_par, &slow, "four-thread arena engine vs slow reference");

        let slow_grid = slow_reference::data_model_verdict_slow(
            std::slice::from_ref(&m),
            std::slice::from_ref(&n),
            kind,
            STATE_CAP,
        );
        let arena_grid = Checker::data_models(std::slice::from_ref(&m), std::slice::from_ref(&n))
            .tier(Tier::DataModel { kind })
            .state_cap(STATE_CAP)
            .run();
        prop_assert_eq!(&arena_grid, &slow_grid, "Definition 6 grid vs slow reference");

        let slow_def1 = slow_reference::operation_pairs_verdict_slow(&m, &n, STATE_CAP);
        for threads in [1usize, 4] {
            let arena_def1 = Checker::new(&m, &n)
                .tier(Tier::Operation)
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(threads))
                .run();
            prop_assert_eq!(&arena_def1, &slow_def1, "Definition 1 at {} threads", threads);
        }
    }

    /// Budget-exhaustion differential: a budgeted run either gives the
    /// unlimited engine's exact verdict or exhausts — it never returns a
    /// *different* answer, no matter how tight the budget.
    #[test]
    fn budgets_never_change_answers(
        m_ops in ops_strategy(),
        n_ops in ops_strategy(),
        max_nodes in 0u64..2_000,
    ) {
        let kind = EquivKind::Composed { max_depth: 2 };
        let m = toy_model("m", &m_ops);
        let n = toy_model("n", &n_ops);
        let unlimited = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(2))
            .run();
        let budgeted = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(2).budget(CheckBudget::nodes(max_nodes)))
            .run();
        match (&unlimited, &budgeted) {
            (Ok(full), Ok(Verdict::BudgetExhausted { .. })) => {
                prop_assert!(!matches!(full, Verdict::BudgetExhausted { .. }));
            }
            (Ok(full), Ok(limited)) => prop_assert_eq!(full, limited),
            // A blown budget may surface before the closure/pairing
            // error does; both engines erring must mean the same error.
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (Err(CheckError::Closure(_) | CheckError::Pairing(_)), Ok(Verdict::BudgetExhausted { .. })) => {}
            _ => prop_assert!(false, "unlimited {:?} vs budgeted {:?}", unlimited, budgeted),
        }
    }
}
