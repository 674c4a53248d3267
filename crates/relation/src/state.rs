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
//!
//! A state changes in place. Every statement stored or removed goes
//! through one pair of primitives that keep the fingerprint and the fact
//! index in step, and joins the state's *dirty set* (what changed since
//! the last [`RelationState::normalize`]), which lets normalization
//! re-check only what a change can affect. A transition run with an
//! [`UndoLog`] ([`crate::CompiledOp::apply_in_place`]) records each of
//! those changes in order, and [`UndoLog::undo`] replays them backwards
//! to the exact prior state, dirty set and `normal` flag included: the
//! closure enumerator applies every operation to one scratch state this
//! way instead of cloning it.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, Mutex};

use dme_logic::{Fact, FactBase, FingerprintBuildHasher};
use dme_value::{Symbol, Tuple, Value};

use crate::facts::tuple_facts;
use crate::schema::{RelationSchema, RelationalSchema};

/// A state's fact index: for every fact the state asserts, how many
/// stored statements assert it. Hashed by each fact's cached
/// fingerprint, so a lookup hashes nothing and compares facts only on a
/// fingerprint match; a fact whose fingerprint another indexed fact
/// already has waits in `collided`.
#[derive(Clone, Default)]
struct FactIndex {
    by_fingerprint: HashMap<u64, (Fact, u32), FingerprintBuildHasher>,
    collided: Vec<(Fact, u32)>,
}

impl FactIndex {
    fn slot(&mut self, fact: &Fact) -> Option<&mut u32> {
        match self.by_fingerprint.get_mut(&fact.fingerprint()) {
            Some((f, n)) if f == fact => Some(n),
            Some(_) => self
                .collided
                .iter_mut()
                .find(|(f, _)| f == fact)
                .map(|(_, n)| n),
            None => None,
        }
    }

    fn contains(&self, fact: &Fact) -> bool {
        match self.by_fingerprint.get(&fact.fingerprint()) {
            Some((f, _)) if f == fact => true,
            Some(_) => self.collided.iter().any(|(f, _)| f == fact),
            None => false,
        }
    }

    /// Counts one more statement asserting `fact`; returns whether the
    /// fact is newly asserted.
    fn increment(&mut self, fact: &Fact) -> bool {
        if let Some(n) = self.slot(fact) {
            *n += 1;
            return false;
        }
        match self.by_fingerprint.entry(fact.fingerprint()) {
            Entry::Vacant(v) => {
                v.insert((fact.clone(), 1));
            }
            Entry::Occupied(_) => self.collided.push((fact.clone(), 1)),
        }
        true
    }

    /// Counts one statement fewer asserting `fact`, dropping the fact at
    /// zero.
    fn decrement(&mut self, fact: &Fact) {
        let fp = fact.fingerprint();
        match self.by_fingerprint.get_mut(&fp) {
            Some((f, n)) if f == fact => {
                *n -= 1;
                if *n == 0 {
                    self.by_fingerprint.remove(&fp);
                    if let Some(at) = self
                        .collided
                        .iter()
                        .position(|(f, _)| f.fingerprint() == fp)
                    {
                        let promoted = self.collided.swap_remove(at);
                        self.by_fingerprint.insert(fp, promoted);
                    }
                }
            }
            _ => {
                let at = self
                    .collided
                    .iter()
                    .position(|(f, _)| f == fact)
                    .expect("fact index out of sync with statements");
                self.collided[at].1 -= 1;
                if self.collided[at].1 == 0 {
                    self.collided.swap_remove(at);
                }
            }
        }
    }

    /// Every indexed fact with its count, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (&Fact, u32)> {
        self.by_fingerprint
            .values()
            .chain(&self.collided)
            .map(|(f, n)| (f, *n))
    }
}

/// Read-only view over a state's incrementally-maintained fact index,
/// exposing exactly the [`dme_logic::FactBase`] queries normalization
/// needs. Scans return facts in the canonical `Fact` order of a
/// `FactBase`, so pass outcomes (e.g. which saturation candidate is
/// found first) are identical to the rebuild-from-scratch path.
pub(crate) struct FactView<'a>(&'a FactIndex);

impl FactView<'_> {
    /// Membership — mirrors [`dme_logic::FactBase::holds`].
    pub(crate) fn holds(&self, fact: &Fact) -> bool {
        self.0.contains(fact)
    }

    /// Visits the facts of one predicate that pass `filter` in canonical
    /// order — what [`dme_logic::FactBase::matching`] yields for a
    /// pattern, without building one — until `visit` returns a value.
    /// Each step takes the least match after the last one visited, so
    /// nothing is collected; a scan usually stops at its first match.
    pub(crate) fn find_matching<T>(
        &self,
        predicate: &Symbol,
        filter: impl Fn(&Fact) -> bool,
        mut visit: impl FnMut(&Fact) -> Option<T>,
    ) -> Option<T> {
        let mut last: Option<&Fact> = None;
        loop {
            let next = self
                .0
                .iter()
                .map(|(f, _)| f)
                .filter(|f| f.predicate() == predicate && last.is_none_or(|l| *f > l) && filter(f))
                .min()?;
            if let Some(found) = visit(next) {
                return Some(found);
            }
            last = Some(next);
        }
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
    /// The statement's share of its state's fingerprint: the hash of
    /// (relation, tuple).
    fp: u64,
}

impl Statement {
    /// A statement of `relation`, which is the relation a state stores
    /// it in.
    pub(crate) fn new(relation: &str, tuple: Tuple, facts: &FactBase) -> Self {
        Self::with_fingerprint(statement_fp(relation, &tuple), tuple, facts)
    }

    /// [`Statement::new`] with the (relation, tuple) hash already known.
    fn with_fingerprint(fp: u64, tuple: Tuple, facts: &FactBase) -> Self {
        Statement(Arc::new(StatementData {
            fp,
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

    /// The statement's share of its state's fingerprint: the hash of
    /// its relation and tuple.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.0.fp
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

/// The statements normalizations compiled — joins and saturation
/// extensions — kept so that a later normalization that creates the same
/// tuple takes the stored statement instead of compiling it again. A
/// compiled operation keeps one for the normalizations it runs
/// ([`crate::CompiledOp::apply_in_place`]); an operation applied to
/// many states keeps creating the same few statements.
#[derive(Debug, Default)]
pub(crate) struct StatementMemo(Mutex<HashMap<u64, Vec<Statement>, FingerprintBuildHasher>>);

impl StatementMemo {
    /// The statement of `tuple` in `rel`, compiled on first use.
    fn statement(&self, rel: &RelationSchema, tuple: Tuple) -> Statement {
        let fp = statement_fp(rel.name().as_str(), &tuple);
        // Every update leaves the memo valid (a statement is pushed
        // whole), so a guard poisoned by a panic elsewhere is still sound.
        let mut memo = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let known = memo.entry(fp).or_default();
        if let Some(s) = known.iter().find(|s| *s.tuple() == tuple) {
            return s.clone();
        }
        let facts = tuple_facts(rel, &tuple);
        let s = Statement::with_fingerprint(fp, tuple, &facts);
        known.push(s.clone());
        s
    }
}

/// A statement of `tuple` in `rel`, through `memo` when there is one.
fn compile(memo: Option<&StatementMemo>, rel: &RelationSchema, tuple: Tuple) -> Statement {
    match memo {
        Some(memo) => memo.statement(rel, tuple),
        None => {
            let facts = tuple_facts(rel, &tuple);
            Statement::new(rel.name().as_str(), tuple, &facts)
        }
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
/// A state also records what changed since it was last normalized: a
/// `normal` flag, which [`RelationState::normalize`] sets and every
/// change to the statements clears, and the *dirty set* — the statements
/// stored and the facts newly asserted since. A transition that leaves a
/// normalized state unchanged (an insert of stored statements, a delete
/// of facts the state does not assert) skips normalization entirely, and
/// one that changes it normalizes only what the dirty set can affect.
#[derive(Clone)]
pub struct RelationState {
    schema: Arc<RelationalSchema>,
    relations: BTreeMap<Symbol, BTreeSet<Statement>>,
    /// Incrementally-maintained content fingerprint: the XOR of
    /// per-(relation, tuple) hashes. Derived data — equality and
    /// ordering work on the tuples alone.
    fp: u64,
    /// Incrementally-maintained fact index: for every fact asserted by
    /// the state, how many statements assert it. The fact set equals
    /// [`crate::facts::state_facts`], so normalization and constraint
    /// checking read it instead of recompiling every tuple on each
    /// operation. Derived data, like `fp`: ignored by `Eq`/`Ord`/`Hash`.
    facts: FactIndex,
    /// The dirty set: what changed since the last normalization.
    /// Derived data, like `fp`: ignored by `Eq`/`Ord`/`Hash`/`Debug`.
    pending: Pending,
    /// Set by [`RelationState::normalize`] and cleared by every change
    /// to the statements, so a set flag means the state is normalized
    /// and `normalize` has nothing to do. Derived data, like `fp`:
    /// ignored by `Eq`/`Ord`/`Hash`/`Debug`.
    normal: bool,
}

/// What changed in a state since it was last normalized. A statement
/// not listed in `stored` was in the state then, when the state was
/// normalized; a fact asserted now but not then is in `asserted`.
/// Entries may be stale (a statement since removed, a fact since
/// denied); `normalize` skips those.
#[derive(Clone, Default)]
struct Pending {
    /// The statements stored, with their relations.
    stored: Vec<(Symbol, Statement)>,
    /// The facts whose index count rose from zero.
    asserted: Vec<Fact>,
}

impl Pending {
    fn is_empty(&self) -> bool {
        self.stored.is_empty() && self.asserted.is_empty()
    }
}

/// One change an [`UndoLog`] records.
enum Change {
    /// A statement was stored in the relation.
    Stored(Symbol, Statement),
    /// A statement was removed from the relation.
    Removed(Symbol, Statement),
}

/// The statements an in-place transition stored and removed, in order,
/// with the state's dirty set and `normal` flag from before it.
/// [`UndoLog::undo`] restores that state exactly; the fingerprint and
/// fact index follow the statements back.
///
/// Returned by [`crate::CompiledOp::apply_in_place`].
pub struct UndoLog {
    changes: Vec<Change>,
    normal: bool,
    pending: Pending,
}

impl UndoLog {
    /// Starts a log for changes about to be made to `state`. Saving an
    /// empty dirty set allocates nothing.
    pub(crate) fn begin(state: &RelationState) -> Self {
        UndoLog {
            changes: Vec::new(),
            normal: state.normal,
            pending: state.pending.clone(),
        }
    }

    /// Whether undoing would change nothing: the transition stored and
    /// removed no statement and started from a normalized state, which
    /// it therefore left as it was.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.normal
    }

    /// Restores the state the log began on: replays the changes
    /// backwards, then restores the dirty set and the `normal` flag.
    pub fn undo(self, state: &mut RelationState) {
        for change in self.changes.into_iter().rev() {
            match change {
                Change::Stored(relation, s) => {
                    let taken = state.unlink(relation.as_str(), s.tuple());
                    debug_assert!(taken.is_some(), "a logged store is undone while stored");
                }
                Change::Removed(relation, s) => state.link(relation.as_str(), s, None),
            }
        }
        if self.pending.is_empty() {
            // Keep the buffers' capacity for the next transition.
            state.pending.stored.clear();
            state.pending.asserted.clear();
        } else {
            state.pending = self.pending;
        }
        state.normal = self.normal;
    }
}

/// Element hash of one statement: the (relation, tuple) pair.
fn statement_fp(relation: &str, tuple: &Tuple) -> u64 {
    dme_logic::content_fingerprint(&(relation, tuple))
}

/// Counts one stored statement's facts into the fact index, pushing
/// each fact it is the first to assert onto `asserted`.
fn index_facts(index: &mut FactIndex, facts: &[Fact], mut asserted: Option<&mut Vec<Fact>>) {
    for f in facts {
        if index.increment(f) {
            if let Some(asserted) = asserted.as_deref_mut() {
                asserted.push(f.clone());
            }
        }
    }
}

/// Takes one removed statement's facts out of the fact index.
fn unindex_facts(index: &mut FactIndex, facts: &[Fact]) {
    for f in facts {
        index.decrement(f);
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
            facts: FactIndex::default(),
            pending: Pending::default(),
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
        self.store(rel.name(), Statement::new(relation, tuple, &facts), None);
        Ok(())
    }

    /// Stores a statement whose tuple is well-formed and whose facts the
    /// caller already compiled; a tuple already stored is left as it is.
    /// A change joins the dirty set and, with a `log`, the log.
    pub(crate) fn store(
        &mut self,
        relation: &Symbol,
        statement: Statement,
        log: Option<&mut UndoLog>,
    ) {
        self.store_tracked(relation, statement, log, true);
    }

    /// [`RelationState::store`] of a remainder of a statement just
    /// removed. Its facts are a subset of that statement's, so none of
    /// them is newly asserted since the last normalization, and the
    /// dirty set records only the statement.
    pub(crate) fn store_remainder(
        &mut self,
        relation: &Symbol,
        statement: Statement,
        log: Option<&mut UndoLog>,
    ) {
        self.store_tracked(relation, statement, log, false);
    }

    fn store_tracked(
        &mut self,
        relation: &Symbol,
        statement: Statement,
        log: Option<&mut UndoLog>,
        track_facts: bool,
    ) {
        if self.relations[relation].contains(&statement) {
            return;
        }
        if track_facts {
            let mut asserted = std::mem::take(&mut self.pending.asserted);
            self.link(relation.as_str(), statement.clone(), Some(&mut asserted));
            self.pending.asserted = asserted;
        } else {
            self.link(relation.as_str(), statement.clone(), None);
        }
        self.normal = false;
        self.pending
            .stored
            .push((relation.clone(), statement.clone()));
        if let Some(log) = log {
            log.changes
                .push(Change::Stored(relation.clone(), statement));
        }
    }

    /// Removes an exact tuple; returns whether it was present.
    pub fn delete_raw(&mut self, relation: &str, tuple: &Tuple) -> Result<bool, StateError> {
        let Some((relation, _)) = self.relations.get_key_value(relation) else {
            return Err(StateError::UnknownRelation(Symbol::new(relation)));
        };
        Ok(self.remove(&relation.clone(), tuple, None))
    }

    /// [`RelationState::delete_raw`] of a relation of the schema, with
    /// an optional log; returns whether the tuple was present.
    pub(crate) fn remove(
        &mut self,
        relation: &Symbol,
        tuple: &Tuple,
        log: Option<&mut UndoLog>,
    ) -> bool {
        let Some(removed) = self.unlink(relation.as_str(), tuple) else {
            return false;
        };
        self.normal = false;
        if let Some(log) = log {
            log.changes.push(Change::Removed(relation.clone(), removed));
        }
        true
    }

    /// Adds an unstored statement with its fingerprint and fact-index
    /// entries, pushing the facts it is the first to assert onto
    /// `asserted`. Leaves the flag and the dirty set to the caller.
    fn link(&mut self, relation: &str, statement: Statement, asserted: Option<&mut Vec<Fact>>) {
        self.fp ^= statement.0.fp;
        index_facts(&mut self.facts, statement.facts(), asserted);
        let set = self
            .relations
            .get_mut(relation)
            .expect("schema relations are pre-populated");
        let inserted = set.insert(statement);
        debug_assert!(inserted, "linked statements are unstored");
    }

    /// Takes a stored statement out with its fingerprint and fact-index
    /// entries. Leaves the flag and the dirty set to the caller.
    fn unlink(&mut self, relation: &str, tuple: &Tuple) -> Option<Statement> {
        let removed = self
            .relations
            .get_mut(relation)
            .expect("schema relations are pre-populated")
            .take(tuple)?;
        self.fp ^= removed.0.fp;
        unindex_facts(&mut self.facts, removed.facts());
        Some(removed)
    }

    /// Whether the state asserts `fact` (one hash probe of the fact index).
    pub fn holds_fact(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    /// The state's fact index: every asserted fact with the number of
    /// stored statements asserting it, in no particular order. The fact
    /// set is exactly [`crate::facts::state_facts`].
    pub(crate) fn fact_counts(&self) -> impl Iterator<Item = (&Fact, u32)> {
        self.facts.iter()
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
                pairs_ok && first_extension(rel, a.tuple(), statements, &facts, None).is_none()
            })
        })
    }

    /// Whether the state carries the flag [`RelationState::normalize`]
    /// sets and every change to the statements clears: when it does, the
    /// state is normalized and `normalize` returns at once.
    pub fn is_marked_normalized(&self) -> bool {
        self.normal
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
    /// survives until the statements change. Otherwise only what the
    /// dirty set can affect is re-checked. A statement stored before the
    /// last normalization (a *clean* one) is incomparable with, and not
    /// mergeable with, every other clean one, since both checks read
    /// only the two statements; so subsumption and merging compare only
    /// pairs with a dirty statement. Saturation reads the fact set too,
    /// so it runs on the dirty statements and on the clean ones a newly
    /// asserted fact may extend. A clean statement's
    /// extensions are never covered by another stored statement (that
    /// statement would dominate it), so removing a statement gives no
    /// clean one an extension. A state built by [`RelationState::insert_raw`]
    /// from the empty state is all dirty: that is full normalization.
    /// Passes scan in statement order, so the first mergeable pair and
    /// the first extension are those a scan of every statement finds,
    /// and the normal form is the same. Only the tuples a pass creates
    /// (a join, a saturation extension) are compiled; their facts are
    /// stored with them.
    pub fn normalize(&mut self) {
        self.normalize_logged(None, None);
    }

    /// [`RelationState::normalize`], recording every statement it stores
    /// and removes in `log` and taking the statements it creates from
    /// `memo`.
    pub(crate) fn normalize_logged(
        &mut self,
        mut log: Option<&mut UndoLog>,
        memo: Option<&StatementMemo>,
    ) {
        if self.normal {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Newly asserted facts still held; a denied one extends nothing.
        pending.asserted.retain(|f| self.facts.contains(f));
        let schema = Arc::clone(&self.schema);
        for rel in schema.relations() {
            let statements = self
                .relations
                .get_mut(rel.name())
                .expect("schema relations are pre-populated");
            let mut dirty: Vec<Statement> = pending
                .stored
                .iter()
                .filter(|(r, s)| r == rel.name() && statements.contains(s))
                .map(|(_, s)| s.clone())
                .collect();
            dirty.sort();
            dirty.dedup();
            let relevant = || {
                pending
                    .asserted
                    .iter()
                    .filter(|f| extends_into(rel, f.predicate()))
            };
            let recheck: Vec<Statement> =
                if dirty.len() == statements.len() || relevant().next().is_none() {
                    Vec::new()
                } else {
                    statements
                        .iter()
                        .filter(|s| {
                            dirty.binary_search(s).is_err()
                                && relevant().any(|f| may_extend(rel, s.tuple(), f))
                        })
                        .cloned()
                        .collect()
                };
            if dirty.is_empty() && recheck.is_empty() {
                continue;
            }
            let replay = Replay {
                rel,
                statements,
                fp: &mut self.fp,
                index: &mut self.facts,
                log: log.as_deref_mut(),
            };
            normalize_relation(replay, dirty, recheck, memo);
        }
        // The fact set is unchanged, so normalizing a later relation
        // leaves an earlier one at its fixpoint: one pass suffices.
        pending.stored.clear();
        pending.asserted.clear();
        self.pending = pending;
        self.normal = true;
    }
}

/// Whether a fact of `predicate` can pass [`may_extend`] for some
/// statement of `rel`: whether it is one of the heading's existence,
/// characteristic or association predicates.
fn extends_into(rel: &RelationSchema, predicate: &Symbol) -> bool {
    rel.mentioned().contains(predicate)
        || rel.participants().iter().enumerate().any(|(pi, p)| {
            (p.asserts_existence() && rel.existence_predicate_of(pi) == predicate)
                || (1..p.columns.len())
                    .any(|ci| rel.characteristic_predicate_of(pi, ci) == predicate)
        })
}

/// Whether saturating `t` could use `fact`: whether `fact` matches one
/// of the patterns [`first_extension`] looks up for `t`, or is a
/// fact one of `t`'s single-column extensions asserts beyond `t`'s own
/// (the existence or association facts of a participant it fills in).
/// An extension asserts `t`'s facts plus such facts only, so a
/// normalized state's statement gains an extension from newly asserted
/// facts only if one of them passes this test.
fn may_extend(rel: &RelationSchema, t: &Tuple, fact: &Fact) -> bool {
    let predicate = fact.predicate();
    rel.participants().iter().enumerate().any(|(pi, p)| {
        let base = rel.participant_offset(pi);
        match t[base].as_atom() {
            Some(key) => (1..p.columns.len()).any(|ci| {
                t[base + ci].is_null()
                    && predicate == rel.characteristic_predicate_of(pi, ci)
                    && fact.get(p.columns[0].characteristic.as_str()) == Some(key)
            }),
            None => {
                (p.asserts_existence() && predicate == rel.existence_predicate_of(pi))
                    || p.case_pairs().any(|(pred, case)| {
                        predicate == pred
                            && rel
                                .bindings_of(pred.as_str())
                                .expect("mentioned predicates are bound")
                                .iter()
                                .all(|(other_case, opi)| {
                                    other_case == case
                                        || t[rel.id_column(*opi)].as_atom().is_some_and(|a| {
                                            fact.get(other_case.as_str()) == Some(a)
                                        })
                                })
                    })
            }
        }
    })
}

/// Whether `joined` (the compiled facts of `a ⊔ b`) asserts exactly the
/// facts of `a` and `b` combined.
fn asserts_exactly(joined: &FactBase, a: &Statement, b: &Statement) -> bool {
    a.facts().iter().chain(b.facts()).all(|f| joined.holds(f))
        && joined.iter().all(|f| a.asserts(f) || b.asserts(f))
}

/// The first single-column extension of `t` justified by already-true
/// facts, with its compiled facts: participants, then columns, then
/// attesting facts in canonical order. Only that candidate and any
/// rejected before it are compiled.
///
/// A stored statement never covers an extension here: an extension is
/// strictly above `t`, so a statement at or above it would dominate `t`,
/// and both callers look for extensions only where no statement
/// dominates another (normalization after its subsumption pass,
/// [`RelationState::is_normalized`] after checking `t`'s pairs).
fn first_extension(
    rel: &RelationSchema,
    t: &Tuple,
    statements: &BTreeSet<Statement>,
    facts: &FactView<'_>,
    memo: Option<&StatementMemo>,
) -> Option<Statement> {
    let candidate = |column: usize, atom: &dme_value::Atom| -> Option<Statement> {
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
        debug_assert!(
            !statements.iter().any(|b| candidate.sem_le(b.tuple())),
            "a stored statement dominates {t}"
        );
        let candidate = compile(memo, rel, candidate);
        candidate
            .facts()
            .iter()
            .all(|f| facts.holds(f))
            .then_some(candidate)
    };

    for (pi, p) in rel.participants().iter().enumerate() {
        let base = rel.participant_offset(pi);
        let id = t[base].as_atom();
        match id {
            Some(key) => {
                // Characteristic columns attested by characteristic facts.
                let id_case = p.columns[0].characteristic.as_str();
                for (ci, _col) in p.columns.iter().enumerate().skip(1) {
                    if !t[base + ci].is_null() {
                        continue;
                    }
                    let pred = rel.characteristic_predicate_of(pi, ci);
                    let found = facts.find_matching(
                        pred,
                        |f| f.get(id_case) == Some(key),
                        |fact| {
                            let v = fact.get(dme_logic::vocab::VALUE_CASE)?;
                            candidate(base + ci, v)
                        },
                    );
                    if found.is_some() {
                        return found;
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
                    let others = || {
                        bindings
                            .iter()
                            .filter(|(other_case, _)| *other_case != case)
                    };
                    if others().any(|(_, opi)| t[rel.id_column(*opi)].is_null()) {
                        continue;
                    }
                    let bound = |f: &Fact| {
                        others().all(|(other_case, opi)| {
                            f.get(other_case.as_str()) == t[rel.id_column(*opi)].as_atom()
                        })
                    };
                    let found = facts.find_matching(pred, bound, |fact| {
                        candidate(base, fact.get(case.as_str())?)
                    });
                    if found.is_some() {
                        return found;
                    }
                }
            }
        }
    }
    None
}

/// Where one relation's normalization applies each change as it makes
/// it: the relation's statements, the state's fingerprint and fact
/// index, and the transition's log when one is kept.
struct Replay<'a> {
    rel: &'a RelationSchema,
    statements: &'a mut BTreeSet<Statement>,
    fp: &'a mut u64,
    index: &'a mut FactIndex,
    log: Option<&'a mut UndoLog>,
}

impl Replay<'_> {
    fn add(&mut self, s: Statement) {
        *self.fp ^= s.0.fp;
        index_facts(self.index, s.facts(), None);
        if let Some(log) = self.log.as_deref_mut() {
            log.changes
                .push(Change::Stored(self.rel.name().clone(), s.clone()));
        }
        let inserted = self.statements.insert(s);
        debug_assert!(inserted, "normalization adds only unstored statements");
    }

    fn remove(&mut self, t: &Tuple) {
        let s = self
            .statements
            .take(t)
            .expect("removed statements are stored");
        *self.fp ^= s.0.fp;
        unindex_facts(self.index, s.facts());
        if let Some(log) = self.log.as_deref_mut() {
            log.changes
                .push(Change::Removed(self.rel.name().clone(), s));
        }
    }
}

/// A set of statements kept as a sorted vector: the dirty statements of
/// one relation, and the clean ones saturation re-checks. Both are
/// small.
#[derive(Default)]
struct Marked(Vec<Statement>);

impl Marked {
    fn from_sorted(statements: Vec<Statement>) -> Self {
        debug_assert!(statements.windows(2).all(|w| w[0] < w[1]));
        Marked(statements)
    }

    fn contains(&self, t: &Tuple) -> bool {
        self.0.binary_search_by(|s| s.tuple().cmp(t)).is_ok()
    }

    fn insert(&mut self, s: Statement) {
        if let Err(at) = self.0.binary_search(&s) {
            self.0.insert(at, s);
        }
    }

    fn remove(&mut self, t: &Tuple) {
        if let Ok(at) = self.0.binary_search_by(|s| s.tuple().cmp(t)) {
            self.0.remove(at);
        }
    }

    /// The marked statements after `t`, in order.
    fn after(&self, t: &Tuple) -> &[Statement] {
        &self.0[self.0.partition_point(|s| s.tuple() <= t)..]
    }
}

/// The merge of two statements: their join, when the two are
/// incomparable and the join asserts exactly their combined facts.
///
/// Decided from the tuples before the join is built. A join asserts
/// every fact of both statements and, beyond them, only association
/// facts whose participants the two identify between them but neither
/// does alone: its existence and characteristic facts are each one
/// statement's, since a statement with a characteristic identifies its
/// participant (coherence). Only a merge is compiled.
fn merge_of(
    rel: &RelationSchema,
    a: &Statement,
    b: &Statement,
    memo: Option<&StatementMemo>,
) -> Option<Statement> {
    let (ta, tb) = (a.tuple(), b.tuple());
    let (mut a_only, mut b_only) = (false, false);
    for (x, y) in ta.values().zip(tb.values()) {
        match (x.is_null(), y.is_null()) {
            (false, true) => a_only = true,
            (true, false) => b_only = true,
            (false, false) if x != y => return None, // no join
            _ => {}
        }
    }
    if !(a_only && b_only) {
        return None; // comparable pair, handled by subsumption
    }
    let identifies = |t: &Tuple, pi: usize| !t[rel.id_column(pi)].is_null();
    let asserts_more = rel.all_bindings().any(|(_, bindings)| {
        let by = |t: &Tuple| bindings.values().all(|&pi| identifies(t, pi));
        bindings
            .values()
            .all(|&pi| identifies(ta, pi) || identifies(tb, pi))
            && !by(ta)
            && !by(tb)
    });
    if asserts_more {
        return None;
    }
    // The join is not stored: it would strictly dominate `a`, and the
    // subsumption pass just removed such pairs.
    let j = ta
        .sem_join(tb)
        .expect("the statements agree wherever both speak");
    debug_assert!(
        asserts_exactly(&tuple_facts(rel, &j), a, b),
        "merge of {ta} and {tb}"
    );
    Some(compile(memo, rel, j))
}

/// Normalizes one relation whose statements outside `dirty` are
/// pairwise normalized and, outside `recheck` too, have no saturation
/// extension (see [`RelationState::normalize`]). Every pass scans in
/// statement order and skips only checks that cannot succeed, so it
/// makes the choices a scan of every statement makes.
///
/// Normalization never changes the fact set, and no fact's count drops
/// to zero on the way: a dominated statement's facts are its
/// dominator's, a merge stores the join before removing its two
/// statements, and an extension asserts facts already held. So the
/// passes read the fact index while the changes update it.
fn normalize_relation(
    mut replay: Replay<'_>,
    dirty: Vec<Statement>,
    recheck: Vec<Statement>,
    memo: Option<&StatementMemo>,
) {
    let rel = replay.rel;
    let mut dirty = Marked::from_sorted(dirty);
    let recheck = Marked::from_sorted(recheck);
    // The statements added since the last subsumption pass (`None`
    // before the first: the dirty ones). After a pass no statement
    // dominates another, and removals create no dominance, so only a
    // pair with a fresh statement can be comparable.
    let mut fresh: Option<Marked> = None;
    loop {
        // Subsumption pass: drop statements strictly below another.
        let statements = &*replay.statements;
        let added = fresh.as_ref().unwrap_or(&dirty);
        let dominated: Vec<Statement> = statements
            .iter()
            .filter(|a| {
                let above = |b: &Statement| a.tuple().sem_lt(b.tuple());
                if added.contains(a.tuple()) {
                    statements.iter().any(above)
                } else {
                    added.0.iter().any(above)
                }
            })
            .cloned()
            .collect();
        let fresh = fresh.insert(Marked::default());
        for s in &dominated {
            replay.remove(s.tuple());
            dirty.remove(s.tuple());
        }

        // Merge pass: find one mergeable pair, apply, restart.
        let statements = &*replay.statements;
        let mut merge: Option<(Statement, Statement, Statement)> = None;
        'outer: for a in statements.iter() {
            let partners: &mut dyn Iterator<Item = &Statement> = if dirty.contains(a.tuple()) {
                &mut statements.range::<Tuple, _>((Bound::Excluded(a.tuple()), Bound::Unbounded))
            } else {
                &mut dirty.after(a.tuple()).iter()
            };
            for b in partners {
                if let Some(j) = merge_of(rel, a, b, memo) {
                    merge = Some((a.clone(), b.clone(), j));
                    break 'outer;
                }
            }
        }
        if let Some((a, b, j)) = merge {
            dirty.insert(j.clone());
            fresh.insert(j.clone());
            replay.add(j);
            for t in [a.tuple(), b.tuple()] {
                replay.remove(t);
                dirty.remove(t);
            }
            continue;
        }

        // Saturation pass: add one uncovered extension, restart.
        let statements = &*replay.statements;
        let facts = FactView(&*replay.index);
        let extension = statements
            .iter()
            .filter(|s| dirty.contains(s.tuple()) || recheck.contains(s.tuple()))
            .find_map(|s| first_extension(rel, s.tuple(), statements, &facts, memo));
        if let Some(candidate) = extension {
            dirty.insert(candidate.clone());
            fresh.insert(candidate.clone());
            replay.add(candidate);
            continue;
        }

        if dominated.is_empty() {
            break;
        }
    }
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
            let counts: BTreeMap<Fact, u32> =
                state.fact_counts().map(|(f, n)| (f.clone(), n)).collect();
            assert_eq!(counts, recount, "{state:?}");
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
