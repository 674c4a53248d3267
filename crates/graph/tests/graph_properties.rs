//! Property tests for the semantic graph model:
//!
//! * fact compilation is injective on valid states (distinct states ⇒
//!   distinct fact bases) — the graph side of the 1-1 state
//!   correspondence;
//! * applying a deletion unit always yields a valid state (the closure
//!   computed by `deletion_unit` really is "a group … which must be
//!   deleted as a single unit");
//! * operations are pure: a failed apply leaves the input untouched, a
//!   successful apply never mutates it either;
//! * in-place application, composed application and the facts each
//!   operation asserts or retracts agree with clone-apply.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dme_graph::facts::{association_fact, entity_facts, state_facts};
use dme_graph::unit::deletion_unit;
use dme_graph::{
    fixtures, Association, Entity, EntityRef, GraphChange, GraphOp, GraphSchema, GraphState,
    GraphTxn, GraphUndo, SemanticUnit,
};
use dme_logic::{content_fingerprint, FactBase, ToFacts};
use dme_value::{Atom, Symbol};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["T.Manhart", "C.Gershag", "G.Wayshum"];
const AGES: [i64; 3] = [32, 40, 50];
const MACHINES: [(&str, &str); 2] = [("NZ745", "lathe"), ("JCL181", "press")];

/// Builds a random *valid* machine-shop graph state from selector bits.
/// Each machine's operator and each supervision is drawn only among the
/// employees present, so every draw is a valid state: a machine whose
/// operator cannot be drawn (nobody is present) and a supervision with
/// an absent end are left out.
fn build_state(
    employees: [bool; 3],
    machines: [Option<usize>; 2],
    supervisions: [bool; 9],
) -> GraphState {
    let schema = Arc::new(fixtures::machine_shop_graph_schema());
    let mut s = GraphState::empty(schema);
    let present: Vec<usize> = (0..3).filter(|&i| employees[i]).collect();
    for &i in &present {
        s.insert_entity_raw(Entity::new(
            "employee",
            [("name", Atom::str(NAMES[i])), ("age", Atom::Int(AGES[i]))],
        ))
        .expect("distinct employees");
    }
    for (m, operator) in machines.iter().enumerate() {
        let Some(choice) = operator else { continue };
        if present.is_empty() {
            continue; // a machine needs an operator
        }
        let op_idx = present[choice % present.len()];
        let (number, ty) = MACHINES[m];
        s.insert_entity_raw(Entity::new(
            "machine",
            [("number", Atom::str(number)), ("type", Atom::str(ty))],
        ))
        .expect("distinct machines");
        s.insert_association_raw(Association::new(
            "operate",
            [
                (
                    "agent",
                    EntityRef::new("employee", Atom::str(NAMES[op_idx])),
                ),
                ("object", EntityRef::new("machine", Atom::str(number))),
            ],
        ))
        .expect("the operator and the machine are present");
    }
    for (k, chosen) in supervisions.iter().enumerate() {
        let (a, b) = (k / 3, k % 3);
        if !*chosen || !employees[a] || !employees[b] {
            continue;
        }
        s.insert_association_raw(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str(NAMES[a]))),
                ("object", EntityRef::new("employee", Atom::str(NAMES[b]))),
            ],
        ))
        .expect("both employees are present");
    }
    s.validate()
        .expect("states drawn among present employees are valid");
    s
}

/// Role bindings with repeated roles and out-of-order input.
fn arb_bindings() -> impl Strategy<Value = Vec<(String, EntityRef)>> {
    prop::collection::vec(
        (
            prop_oneof![Just("agent"), Just("object"), Just("instrument")],
            prop_oneof![Just("A.Alpha"), Just("B.Beta"), Just("M1")],
        )
            .prop_map(|(role, key)| (role.to_owned(), EntityRef::new("employee", Atom::str(key)))),
        0..5,
    )
}

fn arb_state() -> impl Strategy<Value = GraphState> {
    (
        prop::array::uniform3(any::<bool>()),
        prop::array::uniform2(prop_oneof![
            Just(None),
            Just(Some(0usize)),
            Just(Some(1usize)),
            Just(Some(2usize)),
        ]),
        prop::array::uniform9(any::<bool>()),
    )
        .prop_map(|(e, m, s)| build_state(e, m, s))
}

/// Operation scripts over the machine shop: `(kind, insert, k)` steps
/// that [`script_op`] turns into operations.
fn arb_script() -> impl Strategy<Value = Vec<(usize, bool, usize)>> {
    prop::collection::vec((0usize..5, any::<bool>(), 0usize..9), 1..8)
}

/// One script step as an operation against `cur`, the state it will
/// meet (deletion units are computed from it). Covers every `GraphOp`
/// variant.
fn script_op((kind, insert, k): (usize, bool, usize), cur: &GraphState) -> GraphOp {
    let employee = |i: usize| EntityRef::new("employee", Atom::str(NAMES[i]));
    let (number, ty) = MACHINES[k % 2];
    match kind {
        0 => {
            let assoc = Association::new(
                "supervise",
                [("agent", employee(k / 3)), ("object", employee(k % 3))],
            );
            if insert {
                GraphOp::InsertAssociation(assoc)
            } else {
                GraphOp::DeleteAssociation(assoc)
            }
        }
        1 => GraphOp::InsertEntity(Entity::new(
            "employee",
            [
                ("name", Atom::str(NAMES[k % 3])),
                ("age", Atom::Int(AGES[k % 3])),
            ],
        )),
        2 => GraphOp::DeleteEntity(employee(k % 3)),
        3 => GraphOp::DeleteUnit(deletion_unit(
            cur,
            [EntityRef::new("machine", Atom::str(number))],
            [],
        )),
        _ => GraphOp::InsertUnit(
            SemanticUnit::new()
                .with_entity(Entity::new(
                    "machine",
                    [("number", Atom::str(number)), ("type", Atom::str(ty))],
                ))
                .with_association(Association::new(
                    "operate",
                    [
                        ("agent", employee(k % 3)),
                        ("object", EntityRef::new("machine", Atom::str(number))),
                    ],
                )),
        ),
    }
}

/// The facts of a semantic unit's associations and of its entities,
/// each entity as `stored` returns it.
fn unit_facts(
    schema: &GraphSchema,
    unit: &SemanticUnit,
    stored: impl Fn(&Entity) -> Entity,
) -> FactBase {
    let mut out = FactBase::from_facts(unit.associations.iter().map(association_fact));
    for e in &unit.entities {
        out.extend(entity_facts(schema, &stored(e)).iter().cloned());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An association's compact role bindings behave as the `BTreeMap`
    /// of the same pairs: same bindings and lookups, same order, equality
    /// and hash (so state fingerprints are unchanged).
    #[test]
    fn roles_match_a_btree_map(a in arb_bindings(), b in arb_bindings()) {
        let map = |pairs: &[(String, EntityRef)]| -> BTreeMap<Symbol, EntityRef> {
            pairs.iter().map(|(r, e)| (Symbol::new(r), e.clone())).collect()
        };
        let (ma, mb) = (map(&a), map(&b));
        let (ra, rb) = (
            Association::new("p", a.iter().map(|(r, e)| (r.as_str(), e.clone()))),
            Association::new("p", b.iter().map(|(r, e)| (r.as_str(), e.clone()))),
        );
        prop_assert!(ra.roles.iter().eq(ma.iter()));
        for role in ["agent", "object", "instrument", "other"] {
            prop_assert_eq!(ra.role(role), ma.get(role));
        }
        prop_assert_eq!(ra.roles.cmp(&rb.roles), ma.cmp(&mb));
        prop_assert_eq!(ra.roles == rb.roles, ma == mb);
        prop_assert_eq!(content_fingerprint(&ra.roles), content_fingerprint(&ma));
        prop_assert_eq!(format!("{:?}", ra.roles), format!("{ma:?}"));
    }

    #[test]
    fn fact_compilation_is_injective(a in arb_state(), b in arb_state()) {
        prop_assert_eq!(a.to_facts() == b.to_facts(), a == b);
    }

    #[test]
    fn deletion_units_yield_valid_states(
        state in arb_state(),
        seed_employee in 0usize..3,
        seed_machine in 0usize..2,
        use_machine in any::<bool>(),
    ) {
        let seed: EntityRef = if use_machine {
            EntityRef::new("machine", Atom::str(MACHINES[seed_machine].0))
        } else {
            EntityRef::new("employee", Atom::str(NAMES[seed_employee]))
        };
        let unit = deletion_unit(&state, [seed.clone()], []);
        if unit.is_empty() {
            // Seed absent from the state.
            prop_assert!(state.entity(&seed).is_none());
            return Ok(());
        }
        let after = GraphOp::DeleteUnit(unit).apply(&state)
            .expect("deletion units are closed under schema restrictions");
        after.validate().expect("result is a valid state");
        prop_assert!(after.entity(&seed).is_none());
    }

    #[test]
    fn operations_are_pure(state in arb_state(), k in 0usize..9) {
        let snapshot = state.clone();
        let (a, b) = (k / 3, k % 3);
        let op = GraphOp::InsertAssociation(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str(NAMES[a]))),
                ("object", EntityRef::new("employee", Atom::str(NAMES[b]))),
            ],
        ));
        let _ = op.apply(&state);
        prop_assert_eq!(state, snapshot, "apply never mutates its input");
    }

    /// The indexed validation agrees with the index-free scan baseline —
    /// including on *invalid* states built by raw mutation.
    #[test]
    fn indexed_validation_agrees_with_scan(
        state in arb_state(),
        break_it in any::<bool>(),
        victim in 0usize..2,
    ) {
        let mut state = state;
        if break_it {
            // Remove a machine's operation association (if any) to break
            // totality, or a machine entity to dangle a role edge.
            let op = state
                .associations()
                .find(|a| a.predicate == "operate")
                .cloned();
            match (victim, op) {
                (0, Some(a)) => { let _ = state.remove_association_raw(&a); }
                (_, Some(a)) => {
                    let m = a.role("object").expect("operate has object").clone();
                    let _ = state.remove_entity_raw(&m);
                }
                _ => {}
            }
        }
        prop_assert_eq!(state.validate().is_ok(), state.validate_scan().is_ok());
    }

    /// In-place application (`apply_unvalidated`, then `validate`, with
    /// a failed validation reverted) is observationally identical to
    /// clone-apply over whole generated operation scripts: same
    /// success/error outcomes, same resulting states, same fingerprints
    /// — and reverting the script in LIFO order walks back through the
    /// exact intermediate states.
    #[test]
    fn delta_apply_matches_clone_apply(state in arb_state(), script in arb_script()) {
        let mut cur = state.clone();
        let mut trail: Vec<(GraphUndo, GraphState)> = Vec::new();
        for step in script {
            let op = script_op(step, &cur);
            let cloned = op.apply(&cur);
            let before = cur.clone();
            let applied = match op.apply_unvalidated(&mut cur) {
                Ok(undo) if cur.validate().is_ok() => Some(undo),
                Ok(undo) => {
                    undo.revert(&mut cur);
                    None
                }
                Err(_) => None,
            };
            match applied {
                Some(undo) => {
                    let cloned = cloned.expect("in-place apply succeeded, clone-apply must too");
                    prop_assert_eq!(&cur, &cloned);
                    prop_assert_eq!(cur.fingerprint(), cloned.fingerprint());
                    trail.push((undo, before));
                }
                None => {
                    prop_assert!(cloned.is_err(), "clone-apply succeeded where in-place failed");
                    prop_assert_eq!(&cur, &before, "a failed apply must leave the state untouched");
                    prop_assert_eq!(cur.fingerprint(), before.fingerprint());
                }
            }
        }
        for (undo, before) in trail.into_iter().rev() {
            undo.revert(&mut cur);
            prop_assert_eq!(&cur, &before, "revert must restore the exact prior state");
            prop_assert_eq!(cur.fingerprint(), before.fingerprint());
            cur.validate().expect("reverted states stay valid");
        }
    }

    /// The O(delta) composed apply (`apply_all_delta`: in-place raw
    /// mutations + touched-ref validation) agrees with the O(state)
    /// baseline (`apply_all`: clone per op + whole-state validation)
    /// over whole generated scripts: same success/error outcome, same
    /// post-state and fingerprint, a change log that raw-replays the
    /// pre-state to the post-state exactly, and an error rollback /
    /// explicit undo that restore the pre-state exactly.
    #[test]
    fn incremental_apply_matches_clone_apply(state in arb_state(), script in arb_script()) {
        // Materialize the script into concrete ops, advancing a cursor
        // on success so deletion units are computed against the state
        // they will meet (ops past the first failure are still valid
        // data — both paths must stop at the same place).
        let mut cur = state.clone();
        let mut ops: Vec<GraphOp> = Vec::new();
        for step in script {
            let op = script_op(step, &cur);
            if let Ok(next) = op.apply(&cur) {
                cur = next;
            }
            ops.push(op);
        }

        let slow = GraphOp::apply_all(&ops, &state);
        let mut fast_state = state.clone();
        let fast = GraphOp::apply_all_delta(&ops, &mut fast_state);
        match (slow, fast) {
            (Ok(slow_state), Ok(txn)) => {
                prop_assert_eq!(&slow_state, &fast_state);
                prop_assert_eq!(slow_state.fingerprint(), fast_state.fingerprint());
                // The change log is a replay-exact script pre → post.
                let mut replay = state.clone();
                for c in txn.changes() {
                    match c {
                        GraphChange::InsertEntity(e) => {
                            replay.insert_entity_raw(e.clone()).expect("replay insert");
                        }
                        GraphChange::DeleteEntity(e) => {
                            let r = e.to_ref(replay.schema()).expect("logged entity has a key");
                            replay.remove_entity_raw(&r).expect("replay delete");
                        }
                        GraphChange::InsertAssociation(a) => {
                            replay.insert_association_raw(a.clone()).expect("replay insert");
                        }
                        GraphChange::DeleteAssociation(a) => {
                            replay.remove_association_raw(a).expect("replay delete");
                        }
                    }
                }
                prop_assert_eq!(&replay, &fast_state);
                prop_assert_eq!(replay.fingerprint(), fast_state.fingerprint());
                // Applying one op at a time and appending each record
                // yields the same record, and it undoes as one.
                let mut stepped_state = state.clone();
                let mut stepped = GraphTxn::default();
                for op in &ops {
                    let step = GraphOp::apply_all_delta([op], &mut stepped_state)
                        .expect("every op of a successful sequence applies");
                    stepped.append(step);
                }
                prop_assert_eq!(&stepped_state, &fast_state);
                prop_assert_eq!(stepped.changes(), txn.changes());
                GraphOp::undo_txn(&mut stepped_state, stepped);
                prop_assert_eq!(&stepped_state, &state);
                // Undoing the in-place transaction restores the input.
                GraphOp::undo_txn(&mut fast_state, txn);
                prop_assert_eq!(&fast_state, &state);
                prop_assert_eq!(fast_state.fingerprint(), state.fingerprint());
            }
            (Err(_), Err(_)) => {
                // Error rollback leaves the in-place state untouched.
                prop_assert_eq!(&fast_state, &state);
                prop_assert_eq!(fast_state.fingerprint(), state.fingerprint());
            }
            (slow, fast) => {
                prop_assert!(
                    false,
                    "outcome mismatch: apply_all ok={} apply_all_delta ok={}",
                    slow.is_ok(),
                    fast.is_ok()
                );
            }
        }
    }

    /// A fact-level oracle for every operation, independent of the one
    /// mutation routine that both `apply` and the closure candidate run:
    /// a successful apply asserts exactly the facts of the state before,
    /// minus those of the entities and associations the operation
    /// removes, plus those of the ones it inserts.
    #[test]
    fn applied_facts_match_the_operation(
        state in arb_state(),
        from_empty in any::<bool>(),
        script in arb_script(),
    ) {
        // Scripts from the empty state reach the entity operations,
        // which rarely succeed on the states `arb_state` builds.
        let mut cur = if from_empty {
            GraphState::empty(Arc::new(fixtures::machine_shop_graph_schema()))
        } else {
            state
        };
        for step in script {
            let op = script_op(step, &cur);
            let Ok(after) = op.apply(&cur) else { continue };
            let schema = cur.schema();
            let removed_entity = |r: &EntityRef| {
                entity_facts(schema, cur.entity(r).expect("deleted entity was present"))
            };
            let (removed, inserted) = match &op {
                GraphOp::InsertEntity(e) => (FactBase::new(), entity_facts(schema, e)),
                GraphOp::DeleteEntity(r) => (removed_entity(r), FactBase::new()),
                GraphOp::InsertAssociation(a) => {
                    (FactBase::new(), FactBase::from_facts([association_fact(a)]))
                }
                GraphOp::DeleteAssociation(a) => {
                    (FactBase::from_facts([association_fact(a)]), FactBase::new())
                }
                GraphOp::InsertUnit(u) => (FactBase::new(), unit_facts(schema, u, |e| e.clone())),
                GraphOp::DeleteUnit(u) => (
                    unit_facts(schema, u, |e| {
                        let r = e.to_ref(schema).expect("unit entity has a key");
                        cur.entity(&r).expect("deleted entity was present").clone()
                    }),
                    FactBase::new(),
                ),
            };
            let expected = state_facts(&cur).difference(&removed).union(&inserted);
            prop_assert_eq!(state_facts(&after), expected, "{}", op);
            cur = after;
        }
    }

    /// Fingerprints are coherent with equality: equal states (however
    /// they were built) carry equal fingerprints.
    #[test]
    fn fingerprints_agree_on_equal_states(a in arb_state(), b in arb_state()) {
        if a == b {
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Entity and association counts compiled into facts add up.
    #[test]
    fn fact_counts_match_structure(state in arb_state()) {
        let (entities, associations) = state.sizes();
        // Every entity: existence + exactly one non-id characteristic.
        prop_assert_eq!(state.to_facts().len(), entities * 2 + associations);
    }
}

#[test]
fn unit_deletion_covers_all_reachable_seeds() {
    // Exhaustive mini-check: from Figure 4, deleting any single entity's
    // unit produces a valid state not containing that entity.
    let state = fixtures::figure4_state();
    let refs: BTreeSet<EntityRef> = state
        .entities()
        .map(|e| e.to_ref(state.schema()).expect("valid fixture"))
        .collect();
    for r in refs {
        let unit = deletion_unit(&state, [r.clone()], []);
        let after = GraphOp::DeleteUnit(unit).apply(&state);
        match after {
            Ok(after) => {
                after.validate().expect("valid");
                assert!(after.entity(&r).is_none());
            }
            Err(e) => {
                // The only admissible failure is a dangling reference from
                // an association the unit did not drag (supervisions are
                // optional and so not dragged by rule 2) — G.Wayshum and
                // C.Gershag supervise/are supervised.
                let msg = e.to_string();
                assert!(msg.contains("missing"), "unexpected failure: {msg}");
            }
        }
    }
}
