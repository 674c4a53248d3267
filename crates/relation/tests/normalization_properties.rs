//! Property tests for statement normalization (the §3.3.1 subsumption
//! semantics plus statement merging).
//!
//! Invariants:
//! * normalization never changes the asserted fact set;
//! * normalization is idempotent;
//! * normalization is confluent over insertion order — the canonical
//!   state does not depend on the order statements arrived;
//! * within one relation, normalized states are determined by their
//!   facts (§3.3.1's uniqueness requirement; across relations they are
//!   not, see `dme_relation::state`);
//! * `insert-statements` is idempotent and monotone in the fact set;
//! * every transition path (`apply`, `apply_candidate` and a compiled
//!   operation) keeps the state's derived data — fingerprint, fact index
//!   and each statement's stored facts — equal to a rebuild from its
//!   tuples.

use std::sync::Arc;

use dme_logic::ToFacts;
use dme_relation::fixtures;
use dme_relation::ops::StatementSet;
use dme_relation::{RelOp, RelationState};
use dme_value::{Tuple, Value};
use proptest::prelude::*;

/// Candidate Jobs statements over the machine-shop domains (some null
/// patterns, all well-formed or rejected by insert_raw).
fn arb_jobs_tuple() -> impl Strategy<Value = Tuple> {
    let name = prop_oneof![
        Just(Value::Null),
        Just(Value::str("T.Manhart")),
        Just(Value::str("C.Gershag")),
        Just(Value::str("G.Wayshum")),
    ];
    let supervisee = prop_oneof![
        Just(Value::str("T.Manhart")),
        Just(Value::str("C.Gershag")),
        Just(Value::str("G.Wayshum")),
    ];
    let machine = prop_oneof![
        Just(Value::Null),
        Just(Value::str("NZ745")),
        Just(Value::str("JCL181")),
    ];
    (name, supervisee, machine).prop_map(|(a, b, c)| Tuple::new([a, b, c]))
}

fn arb_name() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::str("T.Manhart")),
        Just(Value::str("C.Gershag")),
        Just(Value::str("G.Wayshum")),
    ]
}

fn arb_machine() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::str("NZ745")), Just(Value::str("JCL181"))]
}

/// One statement of any machine-shop relation.
fn arb_statement() -> impl Strategy<Value = (&'static str, Tuple)> {
    let age = prop_oneof![Just(Value::int(32)), Just(Value::int(50))];
    let kind = prop_oneof![Just("lathe"), Just("press")];
    (
        0u8..4,
        arb_jobs_tuple(),
        (arb_name(), age),
        (arb_name(), arb_machine(), kind),
    )
        .prop_map(
            |(relation, jobs, (name, age), (operator, machine, kind))| match relation {
                0 => ("Employees", Tuple::new([name, age])),
                1 => ("Operate", Tuple::new([operator, machine, Value::str(kind)])),
                _ => ("Jobs", jobs),
            },
        )
}

/// How one scripted step applies its operation.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// `RelOp::apply`, keeping the result on success.
    Apply,
    /// `RelOp::apply_candidate` (no constraint check), keeping the result.
    Candidate,
    /// `RelOp::compile` then `CompiledOp::apply_candidate`, keeping the
    /// result (which must equal `RelOp::apply_candidate`'s).
    Compiled,
}

fn arb_step() -> impl Strategy<Value = (Path, RelOp)> {
    let path = prop_oneof![
        Just(Path::Apply),
        Just(Path::Candidate),
        Just(Path::Compiled),
    ];
    (
        path,
        any::<bool>(),
        prop::collection::vec(arb_statement(), 1..3),
    )
        .prop_map(|(path, insert, statements)| {
            let mut set = StatementSet::new();
            for (relation, tuple) in statements {
                set.add(relation, tuple);
            }
            let op = if insert {
                RelOp::insert_set(set)
            } else {
                RelOp::delete_set(set)
            };
            (path, op)
        })
}

/// Checks the state's derived data against a state rebuilt by
/// `insert_raw` of the same tuples: the fingerprint, the fact index's
/// fact set and every statement's stored facts. (The index's per-fact
/// statement counts are compared by a unit test in `state.rs`.)
fn assert_matches_rebuild(state: &RelationState) -> Result<(), TestCaseError> {
    let mut rebuilt = RelationState::empty(std::sync::Arc::clone(state.schema()));
    for rel in state.schema().relations() {
        for t in state.tuples(rel.name().as_str()) {
            rebuilt
                .insert_raw(rel.name().as_str(), t.clone())
                .expect("stored tuples are well-formed");
        }
    }
    prop_assert_eq!(state, &rebuilt);
    prop_assert_eq!(state.fingerprint(), rebuilt.fingerprint());
    prop_assert_eq!(state.to_facts(), rebuilt.to_facts());
    for rel in state.schema().relations() {
        let name = rel.name().as_str();
        for (stored, fresh) in state.statements(name).zip(rebuilt.statements(name)) {
            prop_assert_eq!(stored.tuple(), fresh.tuple());
            prop_assert_eq!(
                stored.facts(),
                fresh.facts(),
                "stored facts of {}",
                stored.tuple()
            );
        }
    }
    Ok(())
}

fn state_with(tuples: &[Tuple]) -> RelationState {
    let schema = Arc::new(fixtures::machine_shop_schema());
    let mut s = RelationState::empty(schema);
    for t in tuples {
        // Ill-formed candidates (vacuous) are simply skipped.
        let _ = s.insert_raw("Jobs", t.clone());
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalization_preserves_facts(tuples in prop::collection::vec(arb_jobs_tuple(), 0..8)) {
        let mut s = state_with(&tuples);
        let before = s.to_facts();
        s.normalize();
        prop_assert_eq!(s.to_facts(), before);
        prop_assert!(s.is_normalized());
    }

    #[test]
    fn normalization_is_idempotent(tuples in prop::collection::vec(arb_jobs_tuple(), 0..8)) {
        let mut s = state_with(&tuples);
        s.normalize();
        let once = s.clone();
        s.normalize();
        prop_assert_eq!(s, once);
    }

    #[test]
    fn normalization_is_confluent_over_insertion_order(
        tuples in prop::collection::vec(arb_jobs_tuple(), 0..8),
        permutation_seed in 0usize..720,
    ) {
        let mut s1 = state_with(&tuples);
        // A deterministic permutation of the same statements.
        let mut shuffled = tuples.clone();
        let n = shuffled.len().max(1);
        shuffled.rotate_left(permutation_seed % n);
        if permutation_seed % 2 == 1 {
            shuffled.reverse();
        }
        let mut s2 = state_with(&shuffled);
        s1.normalize();
        s2.normalize();
        prop_assert_eq!(s1, s2);
    }

    /// Two normalized Jobs-only states are equal iff their fact bases
    /// are equal: injectivity of the compilation within one relation.
    /// (Across relations it fails; `state.rs` pins a counterexample.)
    #[test]
    fn normalized_states_are_determined_by_their_facts(
        a in prop::collection::vec(arb_jobs_tuple(), 0..6),
        b in prop::collection::vec(arb_jobs_tuple(), 0..6),
    ) {
        let mut sa = state_with(&a);
        let mut sb = state_with(&b);
        sa.normalize();
        sb.normalize();
        prop_assert_eq!(sa.to_facts() == sb.to_facts(), sa == sb);
    }

    /// Fingerprints are coherent with equality: equal states carry
    /// equal fingerprints regardless of how they were built.
    #[test]
    fn fingerprints_agree_on_equal_states(
        a in prop::collection::vec(arb_jobs_tuple(), 0..6),
        b in prop::collection::vec(arb_jobs_tuple(), 0..6),
    ) {
        let mut sa = state_with(&a);
        let mut sb = state_with(&b);
        sa.normalize();
        sb.normalize();
        if sa == sb {
            prop_assert_eq!(sa.fingerprint(), sb.fingerprint());
        }
    }

    /// Every transition path keeps the stored per-statement facts, the
    /// fact index and the fingerprint equal to a rebuild from the tuples.
    #[test]
    fn stored_facts_match_a_rebuild(
        script in prop::collection::vec(arb_step(), 1..10),
    ) {
        let mut cur = fixtures::figure3_state();
        assert_matches_rebuild(&cur)?;
        for (path, op) in script {
            match path {
                Path::Apply => {
                    if let Ok(next) = op.apply(&cur) {
                        cur = next;
                    }
                }
                Path::Candidate => {
                    if let Ok(next) = op.apply_candidate(&cur) {
                        cur = next;
                    }
                }
                Path::Compiled => {
                    let one_shot = op.apply_candidate(&cur);
                    match op.compile(cur.schema()) {
                        Ok(compiled) => {
                            let next = compiled.apply_candidate(&cur);
                            prop_assert_eq!(Ok(&next), one_shot.as_ref());
                            cur = next;
                        }
                        Err(e) => prop_assert_eq!(Err(e), one_shot),
                    }
                }
            }
            assert_matches_rebuild(&cur)?;
        }
    }

    /// insert-statements (ignoring constraint failures) is idempotent
    /// and only grows the fact set.
    #[test]
    fn insert_statements_monotone_and_idempotent(
        base in prop::collection::vec(arb_jobs_tuple(), 0..5),
        extra in arb_jobs_tuple(),
    ) {
        let mut s = state_with(&base);
        s.normalize();
        let op = RelOp::insert("Jobs", [extra]);
        if let Ok(next) = op.apply(&s) {
            prop_assert!(next.to_facts().entails(&s.to_facts()), "facts only grow");
            let again = op.apply(&next).expect("idempotent re-apply");
            prop_assert_eq!(again, next);
        }
    }
}
