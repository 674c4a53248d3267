//! Semantic relation database states.
//!
//! A [`RelationState`] maps each relation name of its schema to a set of
//! tuples (statements). It enforces *well-formedness* (the state is a
//! syntactically meaningful collection of statements) as distinct from
//! the schema's *constraints* (checked by operations in [`crate::ops`]):
//!
//! * arity and domain membership per column;
//! * nullability per column;
//! * **participant coherence**: if a participant's identifying column is
//!   null, its other characteristic columns must be null too (a
//!   characteristic of an absent participant is meaningless);
//! * **no vacuous statements**: every tuple must assert at least one fact
//!   (see [`crate::facts`]).
//!
//! Valid states — those reachable through the operations — are
//! additionally **normalized**: no statement is dominated by another
//! (subsumption, §3.3.1) and no two statements are mergeable into one
//! that asserts exactly their combined facts. Within one relation,
//! normalization makes the tuples → fact-base compilation injective.
//! Across relations it does not: `{Employees(T.Manhart, 32),
//! Operate(T.Manhart, NZ745, lathe)}` and the same state plus
//! `Jobs(----, T.Manhart, NZ745)` are both normalized and assert equal
//! facts (the Jobs row repeats the operate fact), yet only the second
//! satisfies the Operate/Jobs agreement constraint. The paper's 1-1
//! state-equivalence correspondence is therefore a property of the
//! closure states, checked at run time: `dme-core`'s `pair_states`
//! rejects two valid states sharing one fact base. No fast path may key
//! relational states by their facts alone.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dme_logic::{Fact, FactBase};
use dme_value::{Symbol, Tuple, Value};

use crate::facts::tuple_facts;
use crate::schema::{RelationSchema, RelationalSchema};

/// Read-only view over a state's incrementally-maintained fact index,
/// exposing exactly the [`dme_logic::FactBase`] queries normalization
/// needs. Keys iterate in the same canonical `Fact` order as a
/// `FactBase`, so pass outcomes (e.g. which saturation candidate is
/// found first) are identical to the rebuild-from-scratch path.
pub(crate) struct FactView<'a>(&'a BTreeMap<Fact, u32>);

impl FactView<'_> {
    /// Membership — mirrors [`dme_logic::FactBase::holds`].
    pub(crate) fn holds(&self, fact: &Fact) -> bool {
        self.0.contains_key(fact)
    }

    /// Facts matching a pattern, in canonical order — mirrors
    /// [`dme_logic::FactBase::matching`].
    pub(crate) fn matching<'b>(
        &'b self,
        pattern: &'b dme_logic::Pattern,
    ) -> impl Iterator<Item = &'b Fact> {
        self.0.keys().filter(move |f| pattern.matches(f))
    }
}

/// Errors raised by state well-formedness checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// A referenced relation is not in the schema.
    UnknownRelation(Symbol),
    /// Tuple arity differs from the heading's.
    ArityMismatch {
        /// The relation at fault.
        relation: Symbol,
        /// The heading's arity.
        expected: usize,
        /// The tuple's arity.
        found: usize,
    },
    /// A value is outside its column's domain.
    DomainViolation {
        /// The relation at fault.
        relation: Symbol,
        /// The flat column index.
        column: usize,
        /// The offending value.
        value: Value,
    },
    /// Null in a non-nullable column.
    NullNotAllowed {
        /// The relation at fault.
        relation: Symbol,
        /// The flat column index.
        column: usize,
    },
    /// Non-null characteristic of a participant whose identifying column
    /// is null.
    ParticipantIncoherent {
        /// The relation at fault.
        relation: Symbol,
        /// The incoherent participant's index.
        participant: usize,
    },
    /// The tuple asserts no facts.
    VacuousTuple {
        /// The relation at fault.
        relation: Symbol,
        /// The vacuous tuple.
        tuple: Tuple,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            StateError::ArityMismatch { relation, expected, found } => write!(
                f,
                "relation `{relation}`: tuple arity {found}, heading arity {expected}"
            ),
            StateError::DomainViolation { relation, column, value } => write!(
                f,
                "relation `{relation}`: value `{value}` outside domain of column {column}"
            ),
            StateError::NullNotAllowed { relation, column } => {
                write!(f, "relation `{relation}`: null in non-nullable column {column}")
            }
            StateError::ParticipantIncoherent { relation, participant } => write!(
                f,
                "relation `{relation}`: participant {participant} has characteristics but a null identifying value"
            ),
            StateError::VacuousTuple { relation, tuple } => {
                write!(f, "relation `{relation}`: tuple {tuple} asserts no statement")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// One stored statement: a tuple together with the facts it compiled to
/// when the state stored it (see [`crate::facts::tuple_facts`]).
///
/// The facts are a function of the tuple under its relation's heading,
/// so a statement is compared, ordered and hashed by its tuple alone, and
/// it borrows as its tuple: a relation's statement set answers
/// `contains(&tuple)` directly. A statement is immutable and shared:
/// cloning a state shares its statements instead of copying them.
#[derive(Clone)]
pub struct Statement(Arc<StatementData>);

struct StatementData {
    tuple: Tuple,
    /// The tuple's facts in canonical `Fact` order, without duplicates.
    facts: Box<[Fact]>,
}

impl Statement {
    pub(crate) fn new(tuple: Tuple, facts: &FactBase) -> Self {
        Statement(Arc::new(StatementData {
            tuple,
            facts: facts.iter().cloned().collect(),
        }))
    }

    /// The statement's tuple.
    pub fn tuple(&self) -> &Tuple {
        &self.0.tuple
    }

    /// The facts the statement asserts, in canonical `Fact` order.
    pub fn facts(&self) -> &[Fact] {
        &self.0.facts
    }

    /// Whether the statement asserts `fact` (a binary search of its
    /// facts).
    pub fn asserts(&self, fact: &Fact) -> bool {
        self.0.facts.binary_search(fact).is_ok()
    }
}

impl PartialEq for Statement {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.tuple() == other.tuple()
    }
}

impl Eq for Statement {}

impl PartialOrd for Statement {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Statement {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.tuple().cmp(other.tuple())
    }
}

impl std::hash::Hash for Statement {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tuple().hash(state);
    }
}

impl Borrow<Tuple> for Statement {
    fn borrow(&self) -> &Tuple {
        self.tuple()
    }
}

impl fmt::Debug for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tuple())
    }
}

/// A database state of the semantic relation model.
///
/// Each relation stores its statements with the facts they compiled to
/// on insertion. A transition therefore compiles facts only for tuples
/// the state does not already store: deleting a statement, replaying a
/// normalization and scanning for denied facts all read the stored
/// facts.
///
/// A state also records whether it is normalized. [`RelationState::normalize`]
/// sets the flag and every change to the statements clears it, so a
/// transition that leaves a normalized state unchanged (an insert of
/// stored statements, a delete of facts the state does not assert)
/// skips normalization entirely.
#[derive(Clone)]
pub struct RelationState {
    schema: Arc<RelationalSchema>,
    relations: BTreeMap<Symbol, BTreeSet<Statement>>,
    /// Incrementally-maintained content fingerprint: the XOR of
    /// per-(relation, tuple) hashes. Derived data — equality and
    /// ordering work on the tuples alone.
    fp: u64,
    /// Incrementally-maintained fact index: for every fact asserted by
    /// the state, how many statements assert it. The key set equals
    /// [`crate::facts::state_facts`], so normalization and constraint
    /// checking read it instead of recompiling every tuple on each
    /// operation. Derived data, like `fp`: ignored by `Eq`/`Ord`/`Hash`.
    facts: BTreeMap<Fact, u32>,
    /// Set by [`RelationState::normalize`] and cleared by every change
    /// to the statements, so a set flag means the state is normalized
    /// and `normalize` has nothing to do. Derived data, like `fp`:
    /// ignored by `Eq`/`Ord`/`Hash`/`Debug`.
    normal: bool,
}

/// Element hash of one statement: the (relation, tuple) pair.
fn statement_fp(relation: &str, tuple: &Tuple) -> u64 {
    dme_logic::content_fingerprint(&(relation, tuple))
}

/// Counts one stored statement's facts into the fact index.
fn index_facts(index: &mut BTreeMap<Fact, u32>, facts: &[Fact]) {
    for f in facts {
        *index.entry(f.clone()).or_insert(0) += 1;
    }
}

/// Takes one removed statement's facts out of the fact index.
fn unindex_facts(index: &mut BTreeMap<Fact, u32>, facts: &[Fact]) {
    for f in facts {
        match index.get_mut(f) {
            Some(1) => {
                index.remove(f);
            }
            Some(n) => *n -= 1,
            None => unreachable!("fact index out of sync with statements"),
        }
    }
}

impl PartialEq for RelationState {
    fn eq(&self, other: &Self) -> bool {
        // States are compared by contents; callers only ever compare
        // states of the same application model.
        self.fp == other.fp && self.relations == other.relations
    }
}

impl Eq for RelationState {}

impl PartialOrd for RelationState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RelationState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.relations.cmp(&other.relations)
    }
}

impl std::hash::Hash for RelationState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `Eq`: contents only, never the schema. The
        // fingerprint is a function of exactly the contents, so hashing
        // it keeps `Hash` consistent with `Eq` at O(1).
        state.write_u64(self.fp);
    }
}

impl fmt::Debug for RelationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RelationState {{")?;
        for (name, statements) in &self.relations {
            writeln!(f, "  {name}:")?;
            for s in statements {
                writeln!(f, "    {}", s.tuple())?;
            }
        }
        write!(f, "}}")
    }
}

impl RelationState {
    /// The empty state of a schema — the paper's initial state, from
    /// which the valid states are generated as the closure of the
    /// allowable operations.
    pub fn empty(schema: Arc<RelationalSchema>) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name().clone(), BTreeSet::new()))
            .collect();
        RelationState {
            schema,
            relations,
            fp: 0,
            facts: BTreeMap::new(),
            normal: true,
        }
    }

    /// The state's incrementally-maintained 64-bit content fingerprint,
    /// which keeps the law `dme_core::FiniteModel::with_fingerprint`
    /// states for the arena's fingerprint hook.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The application-model schema this state belongs to.
    pub fn schema(&self) -> &Arc<RelationalSchema> {
        &self.schema
    }

    /// The stored statements of a relation, if the relation exists.
    /// [`Statement`] borrows as its tuple, so `contains(&tuple)` works
    /// on the returned set.
    pub fn relation(&self, name: &str) -> Option<&BTreeSet<Statement>> {
        self.relations.get(name)
    }

    /// Iterates over a relation's stored statements (empty for unknown
    /// relations).
    pub fn statements(&self, name: &str) -> impl Iterator<Item = &Statement> {
        self.relations.get(name).into_iter().flatten()
    }

    /// Iterates over a relation's tuples (empty for unknown relations).
    pub fn tuples(&self, name: &str) -> impl Iterator<Item = &Tuple> {
        self.statements(name).map(Statement::tuple)
    }

    /// Total number of tuples across relations.
    pub fn len(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// Whether every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(BTreeSet::is_empty)
    }

    /// Checks one tuple's well-formedness against a heading.
    pub fn check_tuple(
        schema: &RelationalSchema,
        rel: &RelationSchema,
        tuple: &Tuple,
    ) -> Result<(), StateError> {
        Self::checked_tuple_facts(schema, rel, tuple).map(|_| ())
    }

    /// Well-formedness check that also returns the tuple's compiled
    /// facts (the vacuity check needs them anyway; `insert_raw` stores
    /// them with the statement, and `delete-statements` denies them).
    pub(crate) fn checked_tuple_facts(
        schema: &RelationalSchema,
        rel: &RelationSchema,
        tuple: &Tuple,
    ) -> Result<FactBase, StateError> {
        Self::check_shape(schema, rel, tuple)?;
        let facts = tuple_facts(rel, tuple);
        if facts.is_empty() {
            return Err(StateError::VacuousTuple {
                relation: rel.name().clone(),
                tuple: tuple.clone(),
            });
        }
        Ok(facts)
    }

    /// Every well-formedness check but vacuity, which needs the tuple's
    /// facts: arity, nulls, domains and participant coherence.
    pub(crate) fn check_shape(
        schema: &RelationalSchema,
        rel: &RelationSchema,
        tuple: &Tuple,
    ) -> Result<(), StateError> {
        let name = rel.name();
        if tuple.arity() != rel.arity() {
            return Err(StateError::ArityMismatch {
                relation: name.clone(),
                expected: rel.arity(),
                found: tuple.arity(),
            });
        }
        let domains = schema.universe().domains();
        for (pi, p) in rel.participants().iter().enumerate() {
            let base = rel.participant_offset(pi);
            for (ci, col) in p.columns.iter().enumerate() {
                let v = &tuple[base + ci];
                if v.is_null() {
                    if !col.nullable {
                        return Err(StateError::NullNotAllowed {
                            relation: name.clone(),
                            column: base + ci,
                        });
                    }
                } else {
                    domains
                        .check(&col.domain, v)
                        .map_err(|_| StateError::DomainViolation {
                            relation: name.clone(),
                            column: base + ci,
                            value: v.clone(),
                        })?;
                }
            }
            // Coherence: null identifying value forces all characteristics
            // of the participant to be null.
            if tuple[rel.id_column(pi)].is_null()
                && (1..p.columns.len()).any(|ci| !tuple[base + ci].is_null())
            {
                return Err(StateError::ParticipantIncoherent {
                    relation: name.clone(),
                    participant: pi,
                });
            }
        }
        Ok(())
    }

    /// Inserts a tuple after well-formedness checks, but **without**
    /// normalization or constraint checking. This is the low-level
    /// building block used by fixtures and by `insert-statements`
    /// (which normalizes and checks constraints afterwards).
    pub fn insert_raw(&mut self, relation: &str, tuple: Tuple) -> Result<(), StateError> {
        let schema = Arc::clone(&self.schema);
        let rel = schema
            .relation(relation)
            .ok_or_else(|| StateError::UnknownRelation(Symbol::new(relation)))?;
        if self.relations[relation].contains(&tuple) {
            // A stored statement passed these checks when it was stored.
            return Ok(());
        }
        let facts = Self::checked_tuple_facts(&schema, rel, &tuple)?;
        self.store(relation, Statement::new(tuple, &facts));
        Ok(())
    }

    /// Stores a statement whose tuple is well-formed and whose facts the
    /// caller already compiled; a tuple already stored is left as it is.
    pub(crate) fn store(&mut self, relation: &str, statement: Statement) {
        let set = self
            .relations
            .get_mut(relation)
            .expect("schema relations are pre-populated");
        if !set.contains(&statement) {
            self.fp ^= statement_fp(relation, statement.tuple());
            index_facts(&mut self.facts, statement.facts());
            set.insert(statement);
            self.normal = false;
        }
    }

    /// Removes an exact tuple; returns whether it was present.
    pub fn delete_raw(&mut self, relation: &str, tuple: &Tuple) -> Result<bool, StateError> {
        let set = self
            .relations
            .get_mut(relation)
            .ok_or_else(|| StateError::UnknownRelation(Symbol::new(relation)))?;
        let Some(removed) = set.take(tuple) else {
            return Ok(false);
        };
        self.fp ^= statement_fp(relation, tuple);
        unindex_facts(&mut self.facts, removed.facts());
        self.normal = false;
        Ok(true)
    }

    /// Whether the state asserts `fact` (O(log n) on the fact index).
    pub fn holds_fact(&self, fact: &Fact) -> bool {
        self.facts.contains_key(fact)
    }

    /// The state's fact index: every asserted fact with the number of
    /// stored statements asserting it. The key set is exactly
    /// [`crate::facts::state_facts`].
    pub(crate) fn fact_counts(&self) -> &BTreeMap<Fact, u32> {
        &self.facts
    }

    /// Checks every tuple's well-formedness.
    pub fn well_formed(&self) -> Result<(), StateError> {
        for rel in self.schema.relations() {
            for t in self.tuples(rel.name().as_str()) {
                Self::check_tuple(&self.schema, rel, t)?;
            }
        }
        Ok(())
    }

    /// Whether every relation is normalized: no dominated statements, no
    /// mergeable pairs, and no statement extendable from facts already
    /// true in the state (saturation — see [`RelationState::normalize`]).
    pub fn is_normalized(&self) -> bool {
        let facts = FactView(&self.facts);
        self.schema.relations().all(|rel| {
            let statements = &self.relations[rel.name()];
            statements.iter().all(|a| {
                let pairs_ok = statements.iter().filter(|b| a < *b).all(|b| {
                    // No comparable distinct pair and no mergeable pair.
                    a.tuple().sem_cmp(b.tuple()).is_none()
                        && !a
                            .tuple()
                            .sem_join(b.tuple())
                            .is_some_and(|j| asserts_exactly(&tuple_facts(rel, &j), a, b))
                });
                // No extendable statement left uncovered.
                pairs_ok && saturation_extensions(rel, a.tuple(), statements, &facts).is_empty()
            })
        })
    }

    /// Normalizes every relation in place:
    ///
    /// 1. **subsumption** — remove any statement strictly below another
    ///    (§3.3.1's automatic deletion);
    /// 2. **merging** — replace two statements by their join whenever the
    ///    join asserts exactly their combined facts;
    /// 3. **saturation** — extend any statement with a null column whose
    ///    value is already attested by the state's facts (the paper's
    ///    reading that a relation "contains the set of all true
    ///    statements fitting a certain form": canonical states keep the
    ///    *maximal* true statements).
    ///
    /// Iterates to a fixpoint. Normalization never changes the asserted
    /// fact set, and within one relation it makes the tuples → fact-base
    /// compilation injective — the paper's requirement that "some
    /// specific application state is represented by a unique state"
    /// (§3.3.1). Both properties are enforced by property tests. Across
    /// relations two normalized states can assert equal facts (see the
    /// module docs), so the correspondence holds on closure states only.
    ///
    /// Returns at once on a state already normalized: the flag this sets
    /// survives until the statements change. Otherwise each relation is
    /// normalized in place, so a relation already at its fixpoint costs
    /// one round of the three checks and nothing else. Only the tuples a
    /// pass creates (a join, a saturation extension) are compiled; their
    /// facts are stored with them.
    pub fn normalize(&mut self) {
        if self.normal {
            return;
        }
        let schema = Arc::clone(&self.schema);
        for rel in schema.relations() {
            let statements = self
                .relations
                .get_mut(rel.name())
                .expect("schema relations are pre-populated");
            // The fact *set* is a normalization invariant, so the passes
            // read the index as it stood before the relation changed;
            // the per-statement refcounts catch up below.
            let replay = normalize_relation(rel, statements, &FactView(&self.facts));
            self.fp ^= replay.fp;
            // Count gains before losses: every fact stays asserted, so
            // a fact is then never dropped from the index while a
            // statement asserting it is still to be counted in.
            for s in &replay.gained {
                index_facts(&mut self.facts, s.facts());
            }
            for s in &replay.lost {
                unindex_facts(&mut self.facts, s.facts());
            }
        }
        // The fact set is unchanged, so normalizing a later relation
        // leaves an earlier one at its fixpoint: one pass suffices.
        self.normal = true;
    }
}

/// Whether `joined` (the compiled facts of `a ⊔ b`) asserts exactly the
/// facts of `a` and `b` combined.
fn asserts_exactly(joined: &FactBase, a: &Statement, b: &Statement) -> bool {
    a.facts().iter().chain(b.facts()).all(|f| joined.holds(f))
        && joined.iter().all(|f| a.asserts(f) || b.asserts(f))
}

/// Single-column extensions of `t` justified by already-true facts and
/// not covered by any stored statement, with their compiled facts.
/// Coverage is checked before compiling, so a stored tuple (which covers
/// itself) is never recompiled.
fn saturation_extensions(
    rel: &RelationSchema,
    t: &Tuple,
    statements: &BTreeSet<Statement>,
    facts: &FactView<'_>,
) -> Vec<Statement> {
    use dme_logic::Pattern;
    let mut out = Vec::new();
    let mut push_candidate = |column: usize, atom: dme_value::Atom| {
        let values: Vec<Value> = t
            .values()
            .enumerate()
            .map(|(i, v)| {
                if i == column {
                    Value::Atom(atom.clone())
                } else {
                    v.clone()
                }
            })
            .collect();
        let candidate = Tuple::new(values);
        if statements.iter().any(|b| candidate.sem_le(b.tuple())) {
            return;
        }
        let compiled = tuple_facts(rel, &candidate);
        if compiled.iter().all(|f| facts.holds(f)) {
            out.push(Statement::new(candidate, &compiled));
        }
    };

    for (pi, p) in rel.participants().iter().enumerate() {
        let base = rel.participant_offset(pi);
        let id = t[base].as_atom();
        match id {
            Some(key) => {
                // Characteristic columns attested by characteristic facts.
                for (ci, _col) in p.columns.iter().enumerate().skip(1) {
                    if !t[base + ci].is_null() {
                        continue;
                    }
                    let pred = rel.characteristic_predicate_of(pi, ci).clone();
                    let pattern = Pattern::predicate(pred)
                        .with(p.columns[0].characteristic.clone(), key.clone());
                    for fact in facts.matching(&pattern) {
                        if let Some(v) = fact.get(dme_logic::vocab::VALUE_CASE) {
                            push_candidate(base + ci, v.clone());
                        }
                    }
                }
            }
            None => {
                // Absent participant: derivable through association facts
                // whose other cases are already bound in `t`.
                for (pred, case) in p.case_pairs() {
                    let bindings = rel
                        .bindings_of(pred.as_str())
                        .expect("mentioned predicates are bound");
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
                            push_candidate(base, v.clone());
                        }
                    }
                }
            }
        }
    }
    out
}

/// What one relation's normalization changed, for the state to replay
/// into its fingerprint and fact index.
#[derive(Default)]
struct Replay {
    /// XOR of the fingerprints of every statement added or removed.
    fp: u64,
    /// The statements added.
    gained: Vec<Statement>,
    /// The statements removed.
    lost: Vec<Statement>,
}

impl Replay {
    fn add(&mut self, rel: &RelationSchema, statements: &mut BTreeSet<Statement>, s: Statement) {
        self.fp ^= statement_fp(rel.name().as_str(), s.tuple());
        self.gained.push(s.clone());
        let inserted = statements.insert(s);
        debug_assert!(inserted, "normalization adds only unstored statements");
    }

    fn remove(&mut self, rel: &RelationSchema, statements: &mut BTreeSet<Statement>, t: &Tuple) {
        let s = statements.take(t).expect("removed statements are stored");
        self.fp ^= statement_fp(rel.name().as_str(), s.tuple());
        self.lost.push(s);
    }
}

fn normalize_relation(
    rel: &RelationSchema,
    statements: &mut BTreeSet<Statement>,
    facts: &FactView<'_>,
) -> Replay {
    let mut replay = Replay::default();
    loop {
        // Subsumption pass: drop statements strictly below another.
        let dominated: Vec<Tuple> = statements
            .iter()
            .filter(|a| statements.iter().any(|b| a.tuple().sem_lt(b.tuple())))
            .map(|a| a.tuple().clone())
            .collect();
        for t in &dominated {
            replay.remove(rel, statements, t);
        }

        // Merge pass: find one mergeable pair, apply, restart.
        let mut merge: Option<(Tuple, Tuple, Statement)> = None;
        'outer: for a in statements.iter() {
            for b in statements.iter() {
                if a >= b {
                    continue;
                }
                if let Some(j) = a.tuple().sem_join(b.tuple()) {
                    if j == *a.tuple() || j == *b.tuple() {
                        continue; // comparable pair, handled by subsumption
                    }
                    // `j` is not stored: it would strictly dominate `a`,
                    // and the subsumption pass just removed such pairs.
                    let joined = tuple_facts(rel, &j);
                    if asserts_exactly(&joined, a, b) {
                        merge = Some((
                            a.tuple().clone(),
                            b.tuple().clone(),
                            Statement::new(j, &joined),
                        ));
                        break 'outer;
                    }
                }
            }
        }
        if let Some((a, b, j)) = merge {
            replay.remove(rel, statements, &a);
            replay.remove(rel, statements, &b);
            replay.add(rel, statements, j);
            continue;
        }

        // Saturation pass: add one uncovered extension, restart.
        let extension = statements.iter().find_map(|s| {
            saturation_extensions(rel, s.tuple(), statements, facts)
                .into_iter()
                .next()
        });
        if let Some(candidate) = extension {
            replay.add(rel, statements, candidate);
            continue;
        }

        if dominated.is_empty() {
            break;
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_logic::ToFacts;
    use dme_value::tuple;

    #[test]
    fn empty_state_is_well_formed_and_normalized() {
        let schema = Arc::new(fixtures::machine_shop_schema());
        let s = RelationState::empty(Arc::clone(&schema));
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.well_formed().unwrap();
        assert!(s.is_normalized());
    }

    #[test]
    fn figure3_state_is_well_formed_and_normalized() {
        let s = fixtures::figure3_state();
        s.well_formed().unwrap();
        assert!(s.is_normalized());
        assert_eq!(s.len(), 3 + 2 + 2);
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut s = fixtures::figure3_state();
        assert_eq!(
            s.insert_raw("Ghost", tuple!["x"]),
            Err(StateError::UnknownRelation(Symbol::new("Ghost")))
        );
        assert!(s.delete_raw("Ghost", &tuple!["x"]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut s = fixtures::figure3_state();
        assert!(matches!(
            s.insert_raw("Employees", tuple!["X"]),
            Err(StateError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn domain_violation_rejected() {
        let mut s = fixtures::figure3_state();
        assert!(matches!(
            s.insert_raw("Employees", tuple!["Nobody", 32]),
            Err(StateError::DomainViolation { .. })
        ));
        assert!(matches!(
            s.insert_raw("Employees", tuple!["T.Manhart", "not-a-year"]),
            Err(StateError::DomainViolation { .. })
        ));
    }

    #[test]
    fn null_in_required_column_rejected() {
        let mut s = fixtures::figure3_state();
        assert!(matches!(
            s.insert_raw("Employees", tuple![Value::Null, 32]),
            Err(StateError::NullNotAllowed { .. })
        ));
    }

    #[test]
    fn incoherent_participant_rejected() {
        let schema = Arc::new(fixtures::figure9_schema());
        let mut s = RelationState::empty(schema);
        // Machine number null but machine type present.
        assert!(matches!(
            s.insert_raw(
                "Jobs",
                tuple![Value::Null, "T.Manhart", 32, Value::Null, "lathe"]
            ),
            Err(StateError::ParticipantIncoherent { .. })
        ));
    }

    #[test]
    fn vacuous_tuple_rejected() {
        let mut s = fixtures::figure3_state();
        assert!(matches!(
            s.insert_raw("Jobs", tuple![Value::Null, "G.Wayshum", Value::Null]),
            Err(StateError::VacuousTuple { .. })
        ));
    }

    /// After every transition path, the fact index counts for each fact
    /// the stored tuples whose compiled facts include it. Walks two
    /// levels of machine-shop operations from Figure 3.
    #[test]
    fn fact_index_counts_match_a_recount() {
        use crate::ops::RelOp;

        // Recounts from freshly compiled facts, not through `store`.
        fn assert_counts(state: &RelationState) {
            let mut recount: BTreeMap<Fact, u32> = BTreeMap::new();
            for rel in state.schema().relations() {
                for t in state.tuples(rel.name().as_str()) {
                    for f in tuple_facts(rel, t).iter() {
                        *recount.entry(f.clone()).or_insert(0) += 1;
                    }
                }
            }
            assert_eq!(state.fact_counts(), &recount, "{state:?}");
        }

        let ops = [
            RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]),
            RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]),
            RelOp::delete("Jobs", [tuple!["G.Wayshum", Value::Null, Value::Null]]),
            RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]),
            RelOp::delete("Jobs", [tuple![Value::Null, "C.Gershag", "JCL181"]]),
            RelOp::delete("Operate", [tuple!["T.Manhart", "NZ745", "lathe"]]),
            RelOp::insert("Operate", [tuple!["G.Wayshum", "NZ745", "lathe"]]),
        ];
        let mut frontier = vec![fixtures::figure3_state()];
        for _ in 0..2 {
            let mut next_frontier = Vec::new();
            for state in &frontier {
                assert_counts(state);
                for op in &ops {
                    if let Ok(next) = op.apply(state) {
                        assert_counts(&next);
                    }
                    if let Ok(next) = op.apply_candidate(state) {
                        next_frontier.push(next);
                    }
                }
            }
            frontier = next_frontier;
        }
        for state in &frontier {
            assert_counts(state);
        }
    }

    /// Two normalized states over several relations can assert equal
    /// facts: the fact base does not determine the state, and only one of
    /// the two passes the agreement constraint. No fast path may key
    /// relational states by facts alone.
    #[test]
    fn normalized_states_are_not_determined_by_their_facts() {
        let schema = Arc::new(fixtures::machine_shop_schema());
        let mut without_jobs = RelationState::empty(Arc::clone(&schema));
        without_jobs
            .insert_raw("Employees", tuple!["T.Manhart", 32])
            .unwrap();
        without_jobs
            .insert_raw("Operate", tuple!["T.Manhart", "NZ745", "lathe"])
            .unwrap();
        let mut with_jobs = without_jobs.clone();
        with_jobs
            .insert_raw("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"])
            .unwrap();
        for s in [&mut without_jobs, &mut with_jobs] {
            s.normalize();
            assert!(s.is_normalized());
        }
        assert_eq!(without_jobs.to_facts(), with_jobs.to_facts());
        assert_ne!(without_jobs, with_jobs);
        assert!(crate::constraints::check_all(&schema, &without_jobs).is_err());
        assert!(crate::constraints::check_all(&schema, &with_jobs).is_ok());
    }

    /// The `normal` flag is set only by `normalize` and cleared by every
    /// change to the statements, so a state carrying it is normalized.
    /// Walks raw edits and two levels of machine-shop operations from
    /// the Figure 3 state.
    #[test]
    fn normal_flag_implies_normalized() {
        use crate::ops::RelOp;

        fn assert_flag_sound(state: &RelationState) {
            assert!(!state.normal || state.is_normalized(), "{state:?}");
        }

        let mut s = RelationState::empty(Arc::new(fixtures::machine_shop_schema()));
        assert!(s.normal, "the empty state is normalized");
        assert_flag_sound(&s);
        // Every raw change clears the flag, including one that leaves a
        // normalized state; a no-op keeps it.
        let edits: [(&str, Tuple, bool); 6] = [
            ("Employees", tuple!["T.Manhart", 32], true),
            ("Jobs", tuple![Value::Null, "T.Manhart", Value::Null], true),
            ("Operate", tuple!["T.Manhart", "NZ745", "lathe"], true),
            ("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"], true),
            ("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"], false),
            ("Operate", tuple!["T.Manhart", "NZ745", "lathe"], false),
        ];
        for (relation, t, insert) in edits {
            s.normalize();
            assert_flag_sound(&s);
            let changed = if insert {
                let before = s.len();
                // Vacuous tuples are rejected and change nothing.
                let _ = s.insert_raw(relation, t.clone());
                s.len() != before
            } else {
                s.delete_raw(relation, &t).unwrap()
            };
            assert_eq!(s.normal, !changed, "{relation}{t}: flag after an edit");
            assert_flag_sound(&s);
            // Repeating the edit changes nothing and keeps the flag.
            s.normalize();
            if insert {
                let _ = s.insert_raw(relation, t.clone());
            } else {
                assert!(!s.delete_raw(relation, &t).unwrap());
            }
            assert!(s.normal, "{relation}{t}: a no-op keeps the flag");
        }

        let ops = [
            RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]),
            RelOp::insert("Jobs", [tuple![Value::Null, "T.Manhart", "NZ745"]]),
            RelOp::delete("Jobs", [tuple!["G.Wayshum", Value::Null, Value::Null]]),
            RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]),
            RelOp::delete("Operate", [tuple!["T.Manhart", "NZ745", "lathe"]]),
            RelOp::insert("Operate", [tuple!["G.Wayshum", "NZ745", "lathe"]]),
        ];
        let mut frontier = vec![fixtures::figure3_state()];
        for _ in 0..2 {
            let mut next_frontier = Vec::new();
            for state in &frontier {
                assert_flag_sound(state);
                for op in &ops {
                    if let Ok(next) = op.apply_candidate(state) {
                        assert!(next.normal, "a transition ends normalized");
                        assert_flag_sound(&next);
                        next_frontier.push(next);
                    }
                }
            }
            frontier = next_frontier;
        }
    }

    #[test]
    fn delete_raw_returns_presence() {
        let mut s = fixtures::figure3_state();
        let t = tuple!["T.Manhart", 32];
        assert_eq!(s.delete_raw("Employees", &t), Ok(true));
        assert_eq!(s.delete_raw("Employees", &t), Ok(false));
    }

    #[test]
    fn normalization_removes_dominated_statement() {
        let mut s = fixtures::figure3_state();
        s.insert_raw("Jobs", tuple!["G.Wayshum", "T.Manhart", "NZ745"])
            .unwrap();
        assert!(!s.is_normalized());
        let before = s.to_facts();
        s.normalize();
        assert!(s.is_normalized());
        // The dominated (----, T.Manhart, NZ745) is gone.
        assert!(!s
            .relation("Jobs")
            .unwrap()
            .contains(&tuple![Value::Null, "T.Manhart", "NZ745"]));
        // Fact set only grew by the new supervise fact.
        let after = s.to_facts();
        assert!(after.entails(&before));
    }

    #[test]
    fn normalization_merges_consistent_statements() {
        let schema = Arc::new(fixtures::machine_shop_schema());
        let mut s = RelationState::empty(Arc::clone(&schema));
        // Two halves of one statement about C.Gershag.
        s.insert_raw("Jobs", tuple!["G.Wayshum", "C.Gershag", Value::Null])
            .unwrap();
        s.insert_raw("Jobs", tuple![Value::Null, "C.Gershag", "JCL181"])
            .unwrap();
        let facts_before = s.to_facts();
        s.normalize();
        assert!(s.is_normalized());
        let jobs = s.relation("Jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.contains(&tuple!["G.Wayshum", "C.Gershag", "JCL181"]));
        assert_eq!(s.to_facts(), facts_before, "normalization preserves facts");
    }

    #[test]
    fn normalization_does_not_merge_conflicting_statements() {
        let schema = Arc::new(fixtures::machine_shop_schema());
        let mut s = RelationState::empty(Arc::clone(&schema));
        s.insert_raw("Jobs", tuple!["G.Wayshum", "C.Gershag", "JCL181"])
            .unwrap();
        s.insert_raw("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"])
            .unwrap();
        s.normalize();
        assert_eq!(s.relation("Jobs").unwrap().len(), 2);
    }

    #[test]
    fn states_compare_by_contents() {
        let a = fixtures::figure3_state();
        let b = fixtures::figure3_state();
        assert_eq!(a, b);
        let mut c = fixtures::figure3_state();
        c.delete_raw("Employees", &tuple!["T.Manhart", 32]).unwrap();
        assert_ne!(a, c);
    }
}
