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
//!   tuples;
//! * the in-place transition (`CompiledOp::apply_in_place`, which
//!   normalizes only what its changes can affect) ends where a full scan
//!   of every statement ends, and its undo log restores the prior state
//!   exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dme_logic::{content_fingerprint, FactBase, Pattern, ToFacts};
use dme_relation::facts::tuple_facts;
use dme_relation::fixtures;
use dme_relation::ops::{remainders, StatementSet};
use dme_relation::{RelOp, RelationSchema, RelationState};
use dme_value::{Symbol, Tuple, Value};
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

/// One machine-shop statement over two names, two machines, one age and
/// one machine type: the size of `dme_core::witness::machine_shop(2, 2)`,
/// where a state's normal form can depend on the path that reached it
/// (a Jobs statement pairs a supervisor with one of two machines).
fn arb_small_statement() -> impl Strategy<Value = (&'static str, Tuple)> {
    let name = || prop_oneof![Just(Value::str("T.Manhart")), Just(Value::str("C.Gershag"))];
    let or_null = |v: BoxedStrategy<Value>| prop_oneof![Just(Value::Null), v].boxed();
    (
        0u8..4,
        (
            or_null(name().boxed()),
            name(),
            or_null(arb_machine().boxed()),
        ),
        (name(), arb_machine()),
    )
        .prop_map(
            |(relation, (boss, worker, job), (name, machine))| match relation {
                0 => ("Employees", Tuple::new([name, Value::int(32)])),
                1 => ("Operate", Tuple::new([name, machine, Value::str("lathe")])),
                _ => ("Jobs", Tuple::new([boss, worker, job])),
            },
        )
}

/// An insert or delete of one to three statements.
fn arb_op(statement: BoxedStrategy<(&'static str, Tuple)>) -> impl Strategy<Value = RelOp> {
    (any::<bool>(), prop::collection::vec(statement, 1..4)).prop_map(|(insert, statements)| {
        let mut set = StatementSet::new();
        for (relation, tuple) in statements {
            set.add(relation, tuple);
        }
        if insert {
            RelOp::insert_set(set)
        } else {
            RelOp::delete_set(set)
        }
    })
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

/// The full-scan normalization the in-place one must agree with: every
/// pass scans every statement of every relation, as normalization did
/// before it tracked what a change touched. Works on tuples, compiling
/// facts from scratch, and returns the normalized state.
fn full_scan_normalize(state: &RelationState) -> RelationState {
    let facts = state.to_facts();
    let mut out = RelationState::empty(Arc::clone(state.schema()));
    for rel in state.schema().relations() {
        let name = rel.name().as_str();
        let mut statements: BTreeSet<Tuple> = state.tuples(name).cloned().collect();
        full_scan_relation(rel, &mut statements, &facts);
        for t in statements {
            out.insert_raw(name, t)
                .expect("normal forms are well-formed");
        }
    }
    out
}

fn full_scan_relation(rel: &RelationSchema, statements: &mut BTreeSet<Tuple>, facts: &FactBase) {
    loop {
        let dominated: Vec<Tuple> = statements
            .iter()
            .filter(|a| statements.iter().any(|b| a.sem_lt(b)))
            .cloned()
            .collect();
        for t in &dominated {
            statements.remove(t);
        }
        let mut merge: Option<(Tuple, Tuple, Tuple)> = None;
        'outer: for a in statements.iter() {
            for b in statements.iter() {
                if a >= b {
                    continue;
                }
                if let Some(j) = a.sem_join(b) {
                    if j == *a || j == *b {
                        continue;
                    }
                    let joined = tuple_facts(rel, &j);
                    let (fa, fb) = (tuple_facts(rel, a), tuple_facts(rel, b));
                    let exact = fa.iter().chain(fb.iter()).all(|f| joined.holds(f))
                        && joined.iter().all(|f| fa.holds(f) || fb.holds(f));
                    if exact {
                        merge = Some((a.clone(), b.clone(), j));
                        break 'outer;
                    }
                }
            }
        }
        if let Some((a, b, j)) = merge {
            statements.remove(&a);
            statements.remove(&b);
            statements.insert(j);
            continue;
        }
        let extension = statements.iter().find_map(|t| {
            full_scan_extensions(rel, t, statements, facts)
                .into_iter()
                .next()
        });
        if let Some(candidate) = extension {
            statements.insert(candidate);
            continue;
        }
        if dominated.is_empty() {
            break;
        }
    }
}

/// Single-column extensions of `t` attested by `facts` and not covered
/// by a statement, in the order the full scan tries them.
fn full_scan_extensions(
    rel: &RelationSchema,
    t: &Tuple,
    statements: &BTreeSet<Tuple>,
    facts: &FactBase,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut push_candidate = |column: usize, atom: &dme_value::Atom| {
        let candidate = Tuple::new(t.values().enumerate().map(|(i, v)| {
            if i == column {
                Value::Atom(atom.clone())
            } else {
                v.clone()
            }
        }));
        if statements.iter().any(|b| candidate.sem_le(b)) {
            return;
        }
        if tuple_facts(rel, &candidate).iter().all(|f| facts.holds(f)) {
            out.push(candidate);
        }
    };
    for (pi, p) in rel.participants().iter().enumerate() {
        let base = rel.participant_offset(pi);
        match t[base].as_atom() {
            Some(key) => {
                for ci in 1..p.columns.len() {
                    if !t[base + ci].is_null() {
                        continue;
                    }
                    let pattern =
                        Pattern::predicate(rel.characteristic_predicate_of(pi, ci).clone())
                            .with(p.columns[0].characteristic.clone(), key.clone());
                    for fact in facts.matching(&pattern) {
                        if let Some(v) = fact.get(dme_logic::vocab::VALUE_CASE) {
                            push_candidate(base + ci, v);
                        }
                    }
                }
            }
            None => {
                for (pred, case) in p.case_pairs() {
                    let bindings = rel.bindings_of(pred.as_str()).expect("bound predicate");
                    let mut pattern = Pattern::predicate(pred.clone());
                    let mut complete = true;
                    for (other_case, opi) in bindings {
                        if other_case == case {
                            continue;
                        }
                        match t[rel.id_column(*opi)].as_atom() {
                            Some(a) => pattern = pattern.with(other_case.clone(), a.clone()),
                            None => {
                                complete = false;
                                break;
                            }
                        }
                    }
                    if !complete {
                        continue;
                    }
                    for fact in facts.matching(&pattern) {
                        if let Some(v) = fact.get(case.as_str()) {
                            push_candidate(base, v);
                        }
                    }
                }
            }
        }
    }
    out
}

/// What `op` does to `state` before normalization, built from public
/// building blocks: an insert stores its statements; a delete removes
/// every statement asserting a denied fact and stores its remainders.
/// `None` for a malformed statement.
fn unnormalized_successor(op: &RelOp, state: &RelationState) -> Option<RelationState> {
    let schema = Arc::clone(state.schema());
    let mut next = state.clone();
    match op {
        RelOp::Insert(set) => {
            for (relation, t) in set.iter() {
                next.insert_raw(relation.as_str(), t.clone()).ok()?;
            }
        }
        RelOp::Delete(set) => {
            let mut denied = FactBase::new();
            for (relation, t) in set.iter() {
                let rel = schema.relation(relation.as_str())?;
                RelationState::check_tuple(&schema, rel, t).ok()?;
                denied.extend(tuple_facts(rel, t).iter().cloned());
            }
            for rel in schema.relations() {
                let name = rel.name().as_str();
                let affected: Vec<Tuple> = next
                    .tuples(name)
                    .filter(|u| tuple_facts(rel, u).iter().any(|f| denied.holds(f)))
                    .cloned()
                    .collect();
                for u in affected {
                    next.delete_raw(name, &u).expect("relation exists");
                    let stored = next.relation(name).expect("relation exists").clone();
                    for r in remainders(rel, &u, &denied, &stored) {
                        next.insert_raw(name, r.tuple().clone())
                            .expect("remainders are well-formed");
                    }
                }
            }
        }
    }
    Some(next)
}

/// Equal states with equal derived data: `Eq`, fingerprint, fact-index
/// fact set and every statement's stored facts.
fn assert_same_state(
    got: &RelationState,
    want: &RelationState,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "{}", what);
    prop_assert_eq!(
        got.fingerprint(),
        want.fingerprint(),
        "{}: fingerprint",
        what
    );
    prop_assert_eq!(got.to_facts(), want.to_facts(), "{}: fact index", what);
    for rel in got.schema().relations() {
        let name = rel.name().as_str();
        for (g, w) in got.statements(name).zip(want.statements(name)) {
            prop_assert_eq!(
                g.facts(),
                w.facts(),
                "{}: stored facts of {}",
                what,
                g.tuple()
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

    /// A statement set behaves as the map `relation → set of tuples` it
    /// stores flattened: the same statements in the same order, the same
    /// lookups, ordering, equality, hash and `Debug`; and `single` builds
    /// what adding the same tuples one at a time builds.
    #[test]
    fn statement_sets_match_a_map_of_sets(
        a in prop::collection::vec(arb_statement(), 0..6),
        b in prop::collection::vec(arb_statement(), 0..6),
    ) {
        type Map = BTreeMap<Symbol, BTreeSet<Tuple>>;
        let build = |stmts: &[(&str, Tuple)]| {
            let mut set = StatementSet::new();
            let mut map = Map::new();
            for (r, t) in stmts {
                set.add(*r, t.clone());
                map.entry(Symbol::new(r)).or_default().insert(t.clone());
            }
            (set, map)
        };
        let flat = |m: &Map| -> Vec<(Symbol, Tuple)> {
            m.iter().flat_map(|(r, ts)| ts.iter().map(|t| (r.clone(), t.clone()))).collect()
        };
        let ((sa, ma), (sb, mb)) = (build(&a), build(&b));
        let listed: Vec<(Symbol, Tuple)> = sa.iter().map(|(r, t)| (r.clone(), t.clone())).collect();
        prop_assert_eq!(listed, flat(&ma));
        prop_assert_eq!(sa.len(), flat(&ma).len());
        prop_assert_eq!(sa.is_empty(), ma.is_empty());
        for r in ["Employees", "Operate", "Jobs", "Other"] {
            prop_assert!(sa.tuples(r).eq(ma.get(r).into_iter().flatten()));
        }
        prop_assert_eq!(sa.cmp(&sb), ma.cmp(&mb));
        prop_assert_eq!(sa == sb, ma == mb);
        prop_assert_eq!(content_fingerprint(&sa), content_fingerprint(&ma));
        prop_assert_eq!(format!("{sa:?}"), format!("StatementSet {{ by_relation: {ma:?} }}"));
        let jobs: Vec<Tuple> = a.iter().filter(|(r, _)| *r == "Jobs").map(|(_, t)| t.clone()).collect();
        let mut added = StatementSet::new();
        for t in &jobs {
            added.add("Jobs", t.clone());
        }
        prop_assert_eq!(StatementSet::single("Jobs", jobs), added);
    }

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

    /// The in-place transition agrees with the full-scan oracle after
    /// every step of a script, and its undo log restores the state it
    /// started from exactly, `normal` flag included. Scripts run over
    /// the Figure 3 domains and over a two-name, two-machine shop; they
    /// start from the empty state or from the raw Figure 3 state (every
    /// statement dirty), and a raw step leaves the next transition an
    /// unnormalized state to start from.
    #[test]
    fn in_place_transitions_match_a_full_scan(
        small in any::<bool>(),
        from_figure3 in any::<bool>(),
        script in prop::collection::vec(
            (any::<bool>(), arb_op(arb_statement().boxed()), arb_op(arb_small_statement().boxed())),
            1..12,
        ),
    ) {
        let mut cur = if from_figure3 {
            fixtures::figure3_state()
        } else {
            RelationState::empty(Arc::new(fixtures::machine_shop_schema()))
        };
        for (raw, wide_op, small_op) in script {
            let op = if small { small_op } else { wide_op };
            let Ok(compiled) = op.compile(cur.schema()) else {
                prop_assert!(unnormalized_successor(&op, &cur).is_none());
                continue;
            };
            let oracle = full_scan_normalize(
                &unnormalized_successor(&op, &cur).expect("the operation compiled"),
            );
            let before = cur.clone();
            let log = compiled.apply_in_place(&mut cur);
            assert_same_state(&cur, &oracle, &format!("{op}"))?;
            prop_assert!(cur.is_marked_normalized() && cur.is_normalized(), "{}", op);
            let after = cur.clone();
            log.undo(&mut cur);
            assert_same_state(&cur, &before, &format!("undo of {op}"))?;
            prop_assert_eq!(cur.is_marked_normalized(), before.is_marked_normalized());
            // Keep the candidate, valid or not, to reach more states.
            cur = after;
            if raw {
                // An unnormalized start for the next transition.
                if let Some((relation, t)) = op.statements().iter().next() {
                    let _ = cur.insert_raw(relation.as_str(), t.clone());
                }
            }
        }
    }
}
