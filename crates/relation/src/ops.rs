//! The operation types of the semantic relation model.
//!
//! §3.2.1: "The operations allowed in the semantic relation data model are
//! the insertion and deletion of sets of statements. In addition, the
//! database state resulting from every successful application of one of
//! these operations is guaranteed to satisfy a set of constraints
//! specified as part of the schema."
//!
//! An operation type, per §2.1, is a function
//! `(schema × arguments × database state) → database state`; here the
//! schema travels inside [`RelationState`], the argument is a
//! [`StatementSet`] (statements may span several relations — one
//! operation can atomically touch Operate *and* Jobs, which the
//! inter-relation agreement constraints require), and the paper's *error
//! state* is modelled as `Err(OpError)` — all error states of all
//! application models are equivalent (§3.3.1), which the equivalence
//! checkers in `dme-core` rely on.
//!
//! ## `insert-statements`
//!
//! 1. well-formedness checks on every inserted statement;
//! 2. set union with the target relations;
//! 3. **normalization** — in particular the automatic deletion of all
//!    statements "less than those inserted" (§3.3.1, Figure 7);
//! 4. constraint checking; any violation yields the error state and the
//!    original state is unchanged.
//!
//! ## `delete-statements`
//!
//! Deletion is *semantic*: deleting a statement denies the facts it
//! asserts. The operation computes the asserted facts of the deleted
//! statements and **weakens** every stored statement (in every relation)
//! that asserts any of them: each affected tuple is replaced by its
//! maximal *remainders* — versions with nullable columns nulled — that
//! avoid the denied facts and still state something.
//!
//! Deleting `(G.Wayshum, T.Manhart, ----)` ("G.Wayshum supervises
//! T.Manhart") from the Figure 7 state therefore weakens
//! `(G.Wayshum, T.Manhart, NZ745)` to `(----, T.Manhart, NZ745)`,
//! restoring Figure 3 exactly — the inverse of the paper's insertion
//! example. Facts asserted only together with denied facts disappear with
//! them (deleting "T.Manhart operates NZ745" removes the machine, whose
//! existence statement lives in the non-nullable Operate row — the
//! relational mirror of the graph model's *semantic unit* deletion).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use dme_logic::{Fact, FactBase};
use dme_value::{Symbol, Tuple, Value};

use crate::constraints::{check_all, ConstraintViolation};
use crate::facts::tuple_facts;
use crate::schema::{RelationSchema, RelationalSchema, MAX_NULLABLE_COLUMNS};
use crate::state::{RelationState, StateError, Statement, StatementMemo, UndoLog};

/// Errors turning an operation application into the paper's error state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// A statement was not well-formed for the schema.
    State(StateError),
    /// The resulting state would violate a constraint.
    Constraint(ConstraintViolation),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::State(e) => write!(f, "malformed statement: {e}"),
            OpError::Constraint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<StateError> for OpError {
    fn from(e: StateError) -> Self {
        OpError::State(e)
    }
}

impl From<ConstraintViolation> for OpError {
    fn from(e: ConstraintViolation) -> Self {
        OpError::Constraint(e)
    }
}

/// A set of statements, possibly spanning several relations — the
/// argument of both operation types.
///
/// Stored as the map `relation → set of tuples`, flattened: relations in
/// order, each with its sorted, duplicate-free tuples. That is one small
/// allocation per relation where a `BTreeMap` of `BTreeSet`s allocates a
/// node with room for eleven entries at both levels, and a request
/// usually carries one statement. Equality, ordering, hashing and `Debug`
/// are those of that map.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StatementSet {
    by_relation: Vec<(Symbol, Vec<Tuple>)>,
}

impl StatementSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statements of a single relation.
    pub fn single(relation: impl Into<Symbol>, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut tuples: Vec<Tuple> = tuples.into_iter().collect();
        if tuples.is_empty() {
            return Self::new();
        }
        tuples.sort();
        tuples.dedup();
        tuples.shrink_to_fit();
        StatementSet {
            by_relation: vec![(relation.into(), tuples)],
        }
    }

    /// Adds one statement.
    pub fn add(&mut self, relation: impl Into<Symbol>, tuple: Tuple) {
        let relation = relation.into();
        let at = match self.by_relation.binary_search_by(|(r, _)| r.cmp(&relation)) {
            Ok(at) => at,
            Err(at) => {
                self.by_relation.insert(at, (relation, Vec::new()));
                at
            }
        };
        let tuples = &mut self.by_relation[at].1;
        if let Err(i) = tuples.binary_search(&tuple) {
            tuples.insert(i, tuple);
        }
    }

    /// Builder-style [`StatementSet::add`].
    pub fn with(mut self, relation: impl Into<Symbol>, tuple: Tuple) -> Self {
        self.add(relation, tuple);
        self
    }

    /// Iterates over `(relation, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Tuple)> {
        self.by_relation
            .iter()
            .flat_map(|(r, ts)| ts.iter().map(move |t| (r, t)))
    }

    /// Statements of one relation.
    pub fn tuples(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        self.by_relation
            .binary_search_by(|(r, _)| r.as_str().cmp(relation))
            .map_or(&[][..], |at| &self.by_relation[at].1[..])
            .iter()
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.by_relation.iter().map(|(_, ts)| ts.len()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.by_relation.is_empty()
    }
}

impl fmt::Debug for StatementSet {
    /// Prints the map `relation → set of tuples`, as a struct over a
    /// `BTreeMap` of `BTreeSet`s would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Set<'a>(&'a [Tuple]);
        impl fmt::Debug for Set<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        struct Map<'a>(&'a [(Symbol, Vec<Tuple>)]);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(r, ts)| (r, Set(ts))))
                    .finish()
            }
        }
        f.debug_struct("StatementSet")
            .field("by_relation", &Map(&self.by_relation))
            .finish()
    }
}

impl fmt::Display for StatementSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (r, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}{t}")?;
        }
        write!(f, "}}")
    }
}

/// An operation of the semantic relation model: one application of an
/// operation type to concrete arguments.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelOp {
    /// `insert-statements`.
    Insert(StatementSet),
    /// `delete-statements` (semantic deletion; see module docs).
    Delete(StatementSet),
}

impl RelOp {
    /// Builds an `insert-statements` operation over one relation.
    pub fn insert(relation: impl Into<Symbol>, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        RelOp::Insert(StatementSet::single(relation, tuples))
    }

    /// Builds an `insert-statements` operation from a full statement set.
    pub fn insert_set(set: StatementSet) -> Self {
        RelOp::Insert(set)
    }

    /// Builds a `delete-statements` operation over one relation.
    pub fn delete(relation: impl Into<Symbol>, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        RelOp::Delete(StatementSet::single(relation, tuples))
    }

    /// Builds a `delete-statements` operation from a full statement set.
    pub fn delete_set(set: StatementSet) -> Self {
        RelOp::Delete(set)
    }

    /// The operation's statement set.
    pub fn statements(&self) -> &StatementSet {
        match self {
            RelOp::Insert(s) | RelOp::Delete(s) => s,
        }
    }

    /// Applies the operation, yielding the new state or the error state.
    /// The input state is never modified (operations are functions
    /// `database state → database state`).
    ///
    /// The paper's Figure 6 → Figure 7 insertion, with the automatic
    /// subsumption deletion:
    ///
    /// ```
    /// use dme_relation::{fixtures, RelOp};
    /// use dme_value::{tuple, Value};
    ///
    /// let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
    /// let after = op.apply(&fixtures::figure3_state()).unwrap();
    /// assert_eq!(after, fixtures::figure7_state());
    /// // The dominated (----, T.Manhart, NZ745) statement is gone:
    /// assert!(!after
    ///     .relation("Jobs")
    ///     .unwrap()
    ///     .contains(&tuple![Value::Null, "T.Manhart", "NZ745"]));
    /// ```
    pub fn apply(&self, state: &RelationState) -> Result<RelationState, OpError> {
        let next = self.apply_candidate(state)?;
        check_all(next.schema(), &next)?;
        Ok(next)
    }

    /// Applies the operation *without* the final constraint check: the
    /// well-formedness checks, the set algebra and normalization all
    /// run, but the resulting candidate state may violate schema
    /// constraints.
    ///
    /// [`RelOp::apply`] is exactly `apply_candidate` followed by
    /// [`check_all`]. The split exists for the equivalence kernel's
    /// closure enumerator: constraint checking is a pure function of
    /// the candidate state, so a candidate that hash-conses to an
    /// already-interned (hence already-validated) state needs no second
    /// check — only genuinely new states pay for `check_all`.
    ///
    /// This is [`RelOp::compile`] followed by
    /// [`CompiledOp::apply_candidate`], except that a statement `state`
    /// already stores is taken with its stored facts rather than checked
    /// and compiled again. A caller applying one operation to many
    /// states compiles it once and applies the [`CompiledOp`] instead.
    pub fn apply_candidate(&self, state: &RelationState) -> Result<RelationState, OpError> {
        Ok(self
            .compile_with(state.schema(), Some(state))?
            .apply_candidate(state))
    }

    /// Compiles the operation against a schema: every statement is
    /// checked for well-formedness and compiled to its facts, once. The
    /// result depends only on the operation and the schema, so it
    /// serves every state of that schema. A malformed statement is the
    /// error every application of the operation returns.
    pub fn compile(&self, schema: &RelationalSchema) -> Result<CompiledOp, OpError> {
        self.compile_with(schema, None)
    }

    /// [`RelOp::compile`], reusing the statements `stored` already holds.
    fn compile_with(
        &self,
        schema: &RelationalSchema,
        stored: Option<&RelationState>,
    ) -> Result<CompiledOp, OpError> {
        let mut statements = Vec::with_capacity(self.statements().len());
        for (relation, t) in self.statements().iter() {
            let rel = schema
                .relation(relation.as_str())
                .ok_or_else(|| StateError::UnknownRelation(relation.clone()))?;
            // A stored statement was checked and compiled when it was
            // stored.
            let known = stored
                .and_then(|s| s.relation(relation.as_str()))
                .and_then(|set| set.get(t));
            let statement = match known {
                Some(s) => s.clone(),
                None => Statement::new(
                    relation.as_str(),
                    t.clone(),
                    &RelationState::checked_tuple_facts(schema, rel, t)?,
                ),
            };
            statements.push((relation.clone(), statement));
        }
        let op = match self {
            RelOp::Insert(_) => Compiled::Insert(statements),
            RelOp::Delete(_) => Compiled::Delete(Denial::new(
                statements
                    .iter()
                    .flat_map(|(_, s)| s.facts().iter().cloned())
                    .collect(),
            )),
        };
        Ok(CompiledOp {
            op,
            made: Arc::default(),
        })
    }

    /// Applies a sequence of operations (a *composed* operation, the
    /// `M-ops*` of Definition 3), stopping at the first error.
    pub fn apply_all<'a>(
        ops: impl IntoIterator<Item = &'a RelOp>,
        state: &RelationState,
    ) -> Result<RelationState, OpError> {
        let mut cur = state.clone();
        for op in ops {
            cur = op.apply(&cur)?;
        }
        Ok(cur)
    }
}

/// A [`RelOp`] compiled against its schema by [`RelOp::compile`]: an
/// insert holds its statements, each checked and compiled to its facts;
/// a delete holds the facts its statements assert, which it denies.
/// Applying it does only the work that depends on the state.
#[derive(Clone, Debug)]
pub struct CompiledOp {
    op: Compiled,
    /// The statements the operation's in-place normalizations created,
    /// shared by clones.
    made: Arc<StatementMemo>,
}

#[derive(Clone, Debug)]
enum Compiled {
    /// The statements to store, in statement-set order.
    Insert(Vec<(Symbol, Statement)>),
    /// The denied facts, with the remainders found so far.
    Delete(Denial),
}

/// A compiled `delete-statements`: the facts it denies, and the
/// remainders it has weakened each statement to so far.
#[derive(Clone, Debug)]
struct Denial {
    facts: FactBase,
    /// The denied facts' fingerprints, sorted: they rule out most facts
    /// before a lookup in `facts`.
    fingerprints: Vec<u64>,
    /// With the denied facts fixed, a statement's remainders depend on
    /// the statement alone, so each is computed once per compiled
    /// operation and shared by its clones. Keyed by the statement's
    /// fingerprint (relation and tuple), confirmed by both.
    weakened: Arc<Mutex<HashMap<u64, Vec<Weakening>>>>,
}

/// One weakened statement of a [`Denial`]: its relation, the statement
/// and its remainders.
type Weakening = (Symbol, Statement, Arc<[Statement]>);

impl Denial {
    fn new(facts: FactBase) -> Self {
        let mut fingerprints: Vec<u64> = facts.iter().map(Fact::fingerprint).collect();
        fingerprints.sort_unstable();
        Denial {
            facts,
            fingerprints,
            weakened: Arc::default(),
        }
    }

    fn denies(&self, fact: &Fact) -> bool {
        self.fingerprints.binary_search(&fact.fingerprint()).is_ok() && self.facts.holds(fact)
    }

    /// The [`remainders`] of a statement of `rel`, each checked
    /// well-formed, computed on the statement's first weakening.
    fn remainders_of(
        &self,
        schema: &RelationalSchema,
        rel: &RelationSchema,
        u: &Statement,
    ) -> Arc<[Statement]> {
        // Every update leaves the memo valid (an entry is pushed whole),
        // so a guard poisoned by a panic elsewhere is still sound.
        let mut weakened = self.weakened.lock().unwrap_or_else(|e| e.into_inner());
        let entries = weakened.entry(u.fingerprint()).or_default();
        if let Some((_, _, found)) = entries.iter().find(|(r, s, _)| r == rel.name() && s == u) {
            return Arc::clone(found);
        }
        let found: Arc<[Statement]> =
            remainders(rel, u.tuple(), &self.facts, &BTreeSet::new()).into();
        for r in found.iter() {
            // Remainders assert facts by construction, so the shape
            // check is all of well-formedness.
            RelationState::check_shape(schema, rel, r.tuple())
                .expect("remainders are well-formed by construction");
        }
        entries.push((rel.name().clone(), u.clone(), Arc::clone(&found)));
        found
    }
}

impl CompiledOp {
    /// The one application path of both operation types, without the
    /// final constraint check: store the inserted statements or weaken
    /// every statement asserting a denied fact, then normalize. The
    /// result is what [`RelOp::apply_candidate`] returns for the
    /// operation this was compiled from; it cannot fail, because every
    /// malformed statement was rejected at compile time.
    pub fn apply_candidate(&self, state: &RelationState) -> RelationState {
        let mut next = state.clone();
        self.apply_to(&mut next, None, None);
        next
    }

    /// [`CompiledOp::apply_candidate`] in place: `state` becomes the
    /// candidate, and the returned log undoes every statement stored and
    /// removed on the way. An insert of stored statements or a delete of
    /// facts a normalized state does not assert changes nothing, and its
    /// log is empty and allocated nothing.
    ///
    /// The operation keeps the statements these normalizations create
    /// (the joins and extensions of the normal form), so applying it to
    /// many states compiles each of them once.
    pub fn apply_in_place(&self, state: &mut RelationState) -> UndoLog {
        let mut log = UndoLog::begin(state);
        self.apply_to(state, Some(&mut log), Some(&self.made));
        log
    }

    fn apply_to(
        &self,
        state: &mut RelationState,
        mut log: Option<&mut UndoLog>,
        memo: Option<&StatementMemo>,
    ) {
        match &self.op {
            Compiled::Insert(statements) => {
                for (relation, statement) in statements {
                    state.store(relation, statement.clone(), log.as_deref_mut());
                }
            }
            Compiled::Delete(denied) => deny(state, denied, log.as_deref_mut()),
        }
        state.normalize_logged(log, memo);
    }
}

/// Weakens every statement of `state` that asserts a denied fact to its
/// [`remainders`], reading the facts each statement stored when it was
/// inserted. Leaves the state unnormalized.
fn deny(state: &mut RelationState, denial: &Denial, mut log: Option<&mut UndoLog>) {
    // A statement can only be affected if one of its facts is denied,
    // and every statement fact is in the state's fact index — so when no
    // denied fact is held at all, the per-tuple scans below would all
    // come up empty.
    if !denial.facts.iter().any(|f| state.holds_fact(f)) {
        return;
    }
    let schema = Arc::clone(state.schema());
    for rel in schema.relations() {
        let name = rel.name();
        let affected: Vec<Statement> = state
            .statements(name.as_str())
            .filter(|u| u.facts().iter().any(|f| denial.denies(f)))
            .cloned()
            .collect();
        for u in affected {
            state.remove(name, u.tuple(), log.as_deref_mut());
            for r in denial.remainders_of(&schema, rel, &u).iter() {
                state.store_remainder(name, r.clone(), log.as_deref_mut());
            }
        }
    }
}

/// The maximal remainders of `u` avoiding the denied facts: versions of
/// `u` with nullable columns nulled that are well-formed, assert at least
/// one fact, assert no denied fact, and are maximal with those
/// properties.
///
/// This is the weakening step of `delete-statements` (see module docs);
/// it is public because the cross-model translators use the same
/// computation to synthesize delete-then-reinsert plans for views whose
/// headings cannot express a fact's denial in isolation.
///
/// # Panics
///
/// When `u` has more than [`MAX_NULLABLE_COLUMNS`] non-null nullable
/// columns, which [`crate::RelationalSchema::new`] rules out for the
/// relations of a schema.
///
/// The remainders come back as statements with their facts, so
/// `delete-statements` stores them without compiling twice. A candidate
/// already in `stored` (the relation's stored statements) reuses its
/// stored facts instead of being compiled.
pub fn remainders(
    rel: &RelationSchema,
    u: &Tuple,
    denied: &FactBase,
    stored: &BTreeSet<Statement>,
) -> Vec<Statement> {
    // Columns we may null: currently non-null and schema-nullable.
    let mut maskable = Vec::new();
    for (pi, p) in rel.participants().iter().enumerate() {
        let base = rel.participant_offset(pi);
        for (ci, col) in p.columns.iter().enumerate() {
            if col.nullable && !u[base + ci].is_null() {
                maskable.push(base + ci);
            }
        }
    }
    assert!(
        maskable.len() <= MAX_NULLABLE_COLUMNS,
        "remainder enumeration supports at most {MAX_NULLABLE_COLUMNS} nullable columns"
    );
    let mut candidates: Vec<Statement> = Vec::new();
    // Skip the empty mask: `u` itself asserts a denied fact.
    for mask in 1u32..(1 << maskable.len()) {
        let values: Vec<Value> = u
            .values()
            .enumerate()
            .map(|(i, v)| {
                let nulled = maskable
                    .iter()
                    .enumerate()
                    .any(|(bit, &col)| col == i && mask & (1 << bit) != 0);
                if nulled {
                    Value::Null
                } else {
                    v.clone()
                }
            })
            .collect();
        let t = Tuple::new(values);
        let candidate = match stored.get(&t) {
            Some(s) => s.clone(),
            None => {
                let facts = tuple_facts(rel, &t);
                Statement::new(rel.name().as_str(), t, &facts)
            }
        };
        let facts = candidate.facts();
        if facts.is_empty() || facts.iter().any(|f| denied.holds(f)) {
            continue;
        }
        // Coherence: nulling an identifying column while keeping other
        // characteristics would be incoherent.
        let t = candidate.tuple();
        let coherent = rel.participants().iter().enumerate().all(|(pi, p)| {
            let base = rel.participant_offset(pi);
            !t[rel.id_column(pi)].is_null() || (1..p.columns.len()).all(|ci| t[base + ci].is_null())
        });
        if coherent {
            candidates.push(candidate);
        }
    }
    // Keep only maximal candidates.
    candidates
        .iter()
        .filter(|c| !candidates.iter().any(|d| c.tuple().sem_lt(d.tuple())))
        .cloned()
        .collect()
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelOp::Insert(s) => write!(f, "insert-statements {s}"),
            RelOp::Delete(s) => write!(f, "delete-statements {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_logic::{state_equivalent, ToFacts};
    use dme_value::tuple;

    #[test]
    fn figure6_to_figure7_insertion_with_subsumption() {
        // §3.3.1: inserting the second tuple of Figure 7 into the Figure 3
        // state automatically deletes (----, T.Manhart, NZ745).
        let f3 = fixtures::figure3_state();
        let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
        let out = op.apply(&f3).unwrap();
        assert_eq!(out, fixtures::figure7_state());
        assert!(!out.relation("Jobs").unwrap().contains(&tuple![
            Value::Null,
            "T.Manhart",
            "NZ745"
        ]));
    }

    #[test]
    fn figure8_insertion_with_null_machine() {
        let premise = fixtures::figure8_premise_state();
        let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let out = op.apply(&premise).unwrap();
        assert_eq!(out, fixtures::figure8_state());
    }

    #[test]
    fn constraint_violation_yields_error_state_and_leaves_input_alone() {
        let f3 = fixtures::figure3_state();
        // Second operator for JCL181 violates uniqueness (constraint 3).
        let op = RelOp::insert("Operate", [tuple!["G.Wayshum", "JCL181", "press"]]);
        let err = op.apply(&f3).unwrap_err();
        assert!(matches!(err, OpError::Constraint(_)));
        // The input state is untouched (operations are pure functions).
        assert_eq!(f3, fixtures::figure3_state());
    }

    #[test]
    fn malformed_statement_yields_error_state() {
        let f3 = fixtures::figure3_state();
        let op = RelOp::insert("Employees", [tuple!["Nobody", 32]]);
        assert!(matches!(op.apply(&f3), Err(OpError::State(_))));
        let op = RelOp::insert("Ghost", [tuple!["x"]]);
        assert!(matches!(op.apply(&f3), Err(OpError::State(_))));
        let op = RelOp::delete("Ghost", [tuple!["x"]]);
        assert!(matches!(op.apply(&f3), Err(OpError::State(_))));
    }

    #[test]
    fn deleting_the_supervision_restores_figure3() {
        // The inverse of the Figure 6→7 insertion: deny exactly the
        // supervise(G.Wayshum, T.Manhart) statement. The combined Jobs row
        // is weakened back to (----, T.Manhart, NZ745).
        let f7 = fixtures::figure7_state();
        let op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let out = op.apply(&f7).unwrap();
        assert_eq!(out, fixtures::figure3_state());
    }

    #[test]
    fn deleting_the_operate_statement_cascades_to_the_machine() {
        // Denying "T.Manhart operates NZ745" removes the machine: its
        // existence statement lives in the non-nullable Operate row (the
        // relational mirror of deleting a graph semantic unit).
        let f3 = fixtures::figure3_state();
        let op = RelOp::delete("Jobs", [tuple![Value::Null, "T.Manhart", "NZ745"]]);
        let out = op.apply(&f3).unwrap();
        assert_eq!(out, fixtures::figure8_premise_state());
        let facts = out.to_facts();
        assert!(!facts
            .iter()
            .any(|f| f.get("number").is_some_and(|a| a.as_str() == Some("NZ745"))));
    }

    #[test]
    fn deleting_combined_statement_denies_all_its_facts() {
        let f7 = fixtures::figure7_state();
        let op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
        let out = op.apply(&f7).unwrap();
        // Both the supervision and the operate pair (and hence machine
        // NZ745) are gone.
        assert_eq!(out, fixtures::figure8_premise_state());
    }

    #[test]
    fn deleting_an_employee_requires_removing_their_statements_first() {
        let f3 = fixtures::figure3_state();
        // G.Wayshum supervises C.Gershag, so the existence delete leaves a
        // dangling supervisor only if the supervision survives — it does
        // not: weakening nulls the supervisor column. Deleting the
        // employee existence statement weakens Jobs rows mentioning
        // G.Wayshum as supervisor? No: the existence fact lives in
        // Employees; Jobs asserts only the supervise fact. The subset
        // constraint then rejects the dangling name.
        let op = RelOp::delete("Employees", [tuple!["G.Wayshum", 50]]);
        assert!(matches!(op.apply(&f3), Err(OpError::Constraint(_))));
        // Denying the supervision in the same operation succeeds.
        let op = RelOp::delete_set(
            StatementSet::new()
                .with("Employees", tuple!["G.Wayshum", 50])
                .with("Jobs", tuple!["G.Wayshum", "C.Gershag", Value::Null]),
        );
        let out = op.apply(&f3).unwrap();
        assert!(!out
            .to_facts()
            .iter()
            .any(|f| f.args().any(|(_, a)| a.as_str() == Some("G.Wayshum"))));
    }

    #[test]
    fn multi_relation_insert_is_atomic() {
        // Inserting a new operate pair requires touching Operate and Jobs
        // together; either alone violates agreement.
        let premise = fixtures::figure8_premise_state();
        let only_operate = RelOp::insert("Operate", [tuple!["T.Manhart", "NZ745", "lathe"]]);
        assert!(matches!(
            only_operate.apply(&premise),
            Err(OpError::Constraint(_))
        ));

        let both = RelOp::insert_set(
            StatementSet::new()
                .with("Operate", tuple!["T.Manhart", "NZ745", "lathe"])
                .with("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"]),
        );
        let out = both.apply(&premise).unwrap();
        assert_eq!(out, fixtures::figure3_state());
    }

    #[test]
    fn apply_all_composes_and_stops_at_first_error() {
        let f3 = fixtures::figure3_state();
        let ops = vec![
            RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]),
            RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]),
        ];
        let out = RelOp::apply_all(&ops, &f3).unwrap();
        assert_eq!(out, f3);

        let bad = vec![RelOp::insert("Ghost", [tuple!["x"]])];
        assert!(RelOp::apply_all(&bad, &f3).is_err());
    }

    #[test]
    fn inserting_existing_statement_is_identity() {
        let f3 = fixtures::figure3_state();
        let op = RelOp::insert("Jobs", [tuple![Value::Null, "T.Manhart", "NZ745"]]);
        let out = op.apply(&f3).unwrap();
        assert_eq!(out, f3);
        assert_eq!(out.to_facts(), f3.to_facts());
    }

    #[test]
    fn deleting_absent_statement_is_identity() {
        let f3 = fixtures::figure3_state();
        let op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let out = op.apply(&f3).unwrap();
        assert_eq!(out, f3);
    }

    #[test]
    fn delete_equals_fact_difference() {
        // The fact base after a delete is exactly the old fact base minus
        // the denied facts and their cascade.
        let f7 = fixtures::figure7_state();
        let op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let out = op.apply(&f7).unwrap();
        let denied: Vec<_> = f7
            .to_facts()
            .difference(&out.to_facts())
            .iter()
            .cloned()
            .collect();
        assert_eq!(denied.len(), 1);
        assert_eq!(denied[0].predicate(), "supervise");
        assert!(state_equivalent(&out, &fixtures::figure3_state()).is_equivalent());
    }

    #[test]
    fn statement_set_accessors() {
        let set = StatementSet::new()
            .with("A", tuple!["x"])
            .with("B", tuple!["y"]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.tuples("A").count(), 1);
        assert_eq!(set.tuples("C").count(), 0);
        assert!(StatementSet::new().is_empty());
    }

    #[test]
    fn display() {
        let op = RelOp::insert("Jobs", [tuple!["a", "b", "c"]]);
        assert_eq!(op.to_string(), "insert-statements {Jobs(a, b, c)}");
        let del = RelOp::delete("Jobs", [tuple!["a", "b", "c"]]);
        assert!(del.to_string().starts_with("delete-statements"));
    }
}
