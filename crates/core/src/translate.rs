//! The operation translators between the two semantic data models.
//!
//! §3.3.1: "In practical terms, we would hope that the operation
//! equivalence mappings can be expressed as an algorithm rather than an
//! explicit enumeration of an extremely large number of equivalent pairs.
//! It is such an algorithm which would actually allow the implementation
//! of a database system which provides users of two different data models
//! with access to the 'same' data."
//!
//! Both translators work at the fact level: apply the source operation
//! (virtually), diff the fact bases, and synthesize target-model
//! operations realising the same fact delta on the equivalent target
//! state. Each translation is **verified** — the synthesized operations
//! are applied to the target state and the result compared fact-for-fact
//! with the source result — so a successful return *is* a certificate of
//! state-dependent operation equivalence (Definition 4) for this pair of
//! states.
//!
//! ## Completion modes and the paper's Figures 7/8
//!
//! [`CompletionMode`] controls how inserted statements are padded:
//!
//! * [`CompletionMode::Minimal`] nulls every nullable column, inserting
//!   `(G.Wayshum, T.Manhart, ----)` for the new supervision and letting
//!   the relation model's statement normalization merge it with
//!   `(----, T.Manhart, NZ745)` when the latter exists;
//! * [`CompletionMode::StateCompleted`] consults the current state and
//!   inserts the *literal* tuples of the paper's figures —
//!   `(G.Wayshum, T.Manhart, NZ745)` against Figure 3 but
//!   `(G.Wayshum, T.Manhart, ----)` against the Figure 8 premise — making
//!   the state dependence §3.3.1 describes directly observable.
//!
//! Deletions always synthesize *minimal* denial statements: completing a
//! denial would deny more than intended.

use std::fmt;

use dme_logic::{state_equivalent, Fact, FactBase, Pattern, ToFacts};
use dme_value::{Symbol, Tuple, Value};

use dme_graph::{
    unit::deletion_unit, Association, Entity, EntityRef, GraphOp, GraphState, SemanticUnit,
};
use dme_relation::facts::tuple_facts;
use dme_relation::ops::StatementSet;
use dme_relation::{RelOp, RelationSchema, RelationState, RelationalSchema};

/// How inserted statements are padded (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompletionMode {
    /// Null every nullable column; rely on statement normalization.
    Minimal,
    /// Fill every derivable column from the current state (the paper's
    /// literal, state-dependent tuples).
    StateCompleted,
}

/// Errors raised by the translators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The source operation itself yields the error state; the equivalent
    /// target operation is any operation that errors (all error states
    /// are equivalent), which the caller can realise directly.
    SourceOpFailed(String),
    /// The given source and target states are not state equivalent, so
    /// translation is meaningless.
    StatesNotEquivalent(String),
    /// The fact delta cannot be expressed in the target model.
    Inexpressible(String),
    /// Synthesized operations did not reproduce the delta (a bug guard —
    /// every successful return is verified).
    VerificationFailed(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::SourceOpFailed(s) => write!(f, "source operation errored: {s}"),
            TranslateError::StatesNotEquivalent(s) => {
                write!(f, "source and target states are not equivalent: {s}")
            }
            TranslateError::Inexpressible(s) => write!(f, "inexpressible in target model: {s}"),
            TranslateError::VerificationFailed(s) => {
                write!(f, "translated operations failed verification: {s}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// What kind of canonical fact this is.
enum FactKind<'a> {
    Existence {
        entity_type: Symbol,
    },
    Characteristic {
        entity_type: Symbol,
        characteristic: Symbol,
    },
    Association {
        predicate: &'a Symbol,
    },
}

fn classify(fact: &Fact) -> FactKind<'_> {
    let p = fact.predicate().as_str();
    if let Some(rest) = p.strip_prefix("be ") {
        FactKind::Existence {
            entity_type: Symbol::new(rest),
        }
    } else if let Some((et, c)) = p.split_once('.') {
        FactKind::Characteristic {
            entity_type: Symbol::new(et),
            characteristic: Symbol::new(c),
        }
    } else {
        FactKind::Association {
            predicate: fact.predicate(),
        }
    }
}

/// Looks up the value of a characteristic of an entity in a fact base.
fn lookup_characteristic(
    context: &FactBase,
    entity_type: &Symbol,
    id_char: &Symbol,
    key: &dme_value::Atom,
    characteristic: &Symbol,
) -> Option<dme_value::Atom> {
    let pred = dme_logic::vocab::characteristic_predicate(entity_type, characteristic);
    let pattern = Pattern::predicate(pred).with(id_char.clone(), key.clone());
    context
        .find(&pattern)
        .and_then(|f| f.get(dme_logic::vocab::VALUE_CASE))
        .cloned()
}

/// Attempts to express `fact` as a statement of relation `rel`,
/// completing the other columns from `context`. Returns `None` when the
/// relation cannot express the fact (which is not an error — another
/// relation may).
fn express_fact(
    schema: &RelationalSchema,
    rel: &RelationSchema,
    fact: &Fact,
    context: &FactBase,
    mode: CompletionMode,
) -> Option<Tuple> {
    let universe = schema.universe();
    let mut values: Vec<Option<Value>> = vec![None; rel.arity()];

    // Seed from the fact itself.
    match classify(fact) {
        FactKind::Existence { entity_type } => {
            let decl = universe.entity_type(entity_type.as_str())?;
            let pi = rel
                .participants()
                .iter()
                .position(|p| p.asserts_existence() && p.entity_type == entity_type)?;
            let key = fact.get(decl.id_characteristic().as_str())?;
            values[rel.id_column(pi)] = Some(Value::Atom(key.clone()));
        }
        FactKind::Characteristic {
            entity_type,
            characteristic,
        } => {
            let decl = universe.entity_type(entity_type.as_str())?;
            let (pi, ci) = rel.participants().iter().enumerate().find_map(|(pi, p)| {
                (p.entity_type == entity_type)
                    .then(|| p.column_of(characteristic.as_str()).map(|ci| (pi, ci)))
                    .flatten()
            })?;
            if ci == 0 {
                return None; // the identifying column asserts no characteristic fact
            }
            let key = fact.get(decl.id_characteristic().as_str())?;
            let base = rel.participant_offset(pi);
            values[base] = Some(Value::Atom(key.clone()));
            values[base + ci] = Some(Value::Atom(fact.get("value")?.clone()));
        }
        FactKind::Association { predicate } => {
            let decl = universe.predicate(predicate.as_str())?;
            let bindings = rel.predicate_bindings(predicate.as_str());
            if bindings.is_empty() || bindings.len() != decl.arity() {
                return None;
            }
            for (case, pi) in &bindings {
                let key = fact.get(case.as_str())?;
                values[rel.id_column(*pi)] = Some(Value::Atom(key.clone()));
            }
        }
    }

    // Derive identifying values of other participants through association
    // facts in the context (e.g. the operator of a machine being inserted
    // via Operate, or — in StateCompleted mode — the machine of the
    // supervisee, the paper's Figure 7 literal tuple).
    let mut progress = true;
    while progress {
        progress = false;
        for (pi, p) in rel.participants().iter().enumerate() {
            let id_col = rel.id_column(pi);
            if values[id_col].is_some() {
                continue;
            }
            let required = p.columns.iter().any(|c| !c.nullable);
            if !required && mode == CompletionMode::Minimal {
                continue;
            }
            for (pred, case) in p.case_pairs() {
                let Some(decl) = universe.predicate(pred.as_str()) else {
                    continue;
                };
                let bindings = rel.predicate_bindings(pred.as_str());
                // All other cases of this predicate must already be bound.
                let mut pattern = Pattern::predicate(pred.clone());
                let mut complete = true;
                for (other_case, _) in decl.cases() {
                    if other_case == case {
                        continue;
                    }
                    let Some(&opi) = bindings.get(other_case) else {
                        complete = false;
                        break;
                    };
                    match &values[rel.id_column(opi)] {
                        Some(Value::Atom(a)) => {
                            pattern = pattern.with(other_case.clone(), a.clone());
                        }
                        _ => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                if let Some(found) = context.find(&pattern) {
                    if let Some(key) = found.get(case.as_str()) {
                        values[id_col] = Some(Value::Atom(key.clone()));
                        progress = true;
                        break;
                    }
                }
            }
        }
    }

    // Complete characteristic columns (and null the rest).
    for (pi, p) in rel.participants().iter().enumerate() {
        let base = rel.participant_offset(pi);
        let decl = universe
            .entity_type(p.entity_type.as_str())
            .expect("schema validated");
        let id = values[base].clone();
        for (ci, col) in p.columns.iter().enumerate() {
            if values[base + ci].is_some() {
                continue;
            }
            let derived = match &id {
                Some(Value::Atom(key)) if ci > 0 => lookup_characteristic(
                    context,
                    &p.entity_type,
                    decl.id_characteristic(),
                    key,
                    &col.characteristic,
                ),
                _ => None,
            };
            values[base + ci] = Some(match (mode, col.nullable, derived) {
                (CompletionMode::Minimal, true, _) => Value::Null,
                (_, _, Some(v)) => Value::Atom(v),
                (_, true, None) => Value::Null,
                (_, false, None) => return None,
            });
        }
    }

    let tuple = Tuple::new(values.into_iter().map(|v| v.expect("all columns set")));
    let facts = tuple_facts(rel, &tuple);
    if !facts.holds(fact) {
        return None;
    }
    // Never invent: every asserted fact must be true in the context or be
    // the fact itself.
    if facts.iter().any(|f| f != fact && !context.holds(f)) {
        return None;
    }
    if RelationState::check_tuple(schema, rel, &tuple).is_err() {
        return None;
    }
    Some(tuple)
}

/// Materializes a relational state equivalent to the given fact base:
/// the state-level mapping needed to *initialize* an external view over
/// an existing conceptual database (the ops-level translators keep it in
/// lockstep afterwards). Every fact is expressed, state-completed, in
/// every relation that can carry it; normalization then merges the
/// statements into canonical form.
pub fn materialize_relational_state(
    schema: &std::sync::Arc<RelationalSchema>,
    facts: &FactBase,
) -> Result<RelationState, TranslateError> {
    // A subset external schema (§1.2) materializes only the facts its
    // vocabulary can express.
    let facts = &schema.vocabulary().filter(facts);
    let mut state = RelationState::empty(std::sync::Arc::clone(schema));
    for fact in facts.iter() {
        let mut found = false;
        for rel in schema.relations() {
            if let Some(t) = express_fact(schema, rel, fact, facts, CompletionMode::StateCompleted)
            {
                state
                    .insert_raw(rel.name().as_str(), t)
                    .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
                found = true;
            }
        }
        if !found {
            return Err(TranslateError::Inexpressible(format!(
                "no relation can assert fact {fact}"
            )));
        }
    }
    state.normalize();
    check_equivalent(facts, &state.to_facts(), TranslateError::VerificationFailed)?;
    Ok(state)
}

/// Definition 2 on two compiled states: `left` and `right` must be the
/// same fact base; a difference is reported through `err`.
fn check_equivalent(
    left: &FactBase,
    right: &FactBase,
    err: fn(String) -> TranslateError,
) -> Result<(), TranslateError> {
    if left == right {
        Ok(())
    } else {
        Err(err(state_equivalent(left, right).to_string()))
    }
}

/// Translates a graph operation into the equivalent relational
/// operation(s) for the given pair of equivalent states. Returns the
/// (possibly empty) composed operation.
///
/// The paper's §3.3.1 example — against Figure 3 the supervision
/// insertion becomes the literal Figure 7 tuple:
///
/// ```
/// use dme_core::translate::{graph_op_to_relational, CompletionMode};
/// use dme_graph::{fixtures as gfix, Association, EntityRef, GraphOp};
/// use dme_relation::fixtures as rfix;
/// use dme_value::Atom;
///
/// let op = GraphOp::InsertAssociation(Association::new(
///     "supervise",
///     [
///         ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
///         ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
///     ],
/// ));
/// let rel_ops = graph_op_to_relational(
///     &op,
///     &gfix::figure4_state(),
///     &rfix::figure3_state(),
///     CompletionMode::StateCompleted,
/// )
/// .unwrap();
/// let after = rel_ops[0].apply(&rfix::figure3_state()).unwrap();
/// assert_eq!(after, rfix::figure7_state());
/// ```
pub fn graph_op_to_relational(
    op: &GraphOp,
    graph_before: &GraphState,
    rel_before: &RelationState,
    mode: CompletionMode,
) -> Result<Vec<RelOp>, TranslateError> {
    let before = graph_before.to_facts();
    match op.apply(graph_before) {
        Ok(graph_after) => {
            graph_facts_to_relational(&before, &graph_after.to_facts(), rel_before, mode)
        }
        Err(e) => Err(graph_op_failed(&before, rel_before, e)),
    }
}

/// The error of translating a graph operation that failed on the state
/// compiling to `before`: a pair that is not equivalent is reported
/// first (`StatesNotEquivalent`), as [`graph_facts_to_relational`]
/// reports it, and only then the operation's own error (`SourceOpFailed`).
pub fn graph_op_failed(
    before: &FactBase,
    rel_before: &RelationState,
    err: impl std::fmt::Display,
) -> TranslateError {
    let vocab = rel_before.schema().vocabulary();
    match check_equivalent(
        &vocab.filter(before),
        &rel_before.to_facts(),
        TranslateError::StatesNotEquivalent,
    ) {
        Err(not_equivalent) => not_equivalent,
        Ok(()) => TranslateError::SourceOpFailed(err.to_string()),
    }
}

/// [`graph_op_to_relational`] on compiled conceptual states: `before` and
/// `after` are the fact bases (`to_facts`) of the graph states before
/// and after the source operation, so a caller translating one
/// operation into several views compiles each state once and shares it.
/// Both checks still run: `rel_before` must compile to `before` within
/// the view's vocabulary, and the synthesized operations applied to it
/// must compile to `after`.
pub fn graph_facts_to_relational(
    before: &FactBase,
    after: &FactBase,
    rel_before: &RelationState,
    mode: CompletionMode,
) -> Result<Vec<RelOp>, TranslateError> {
    // Relativize everything to the view's vocabulary: for a full view
    // this is the identity; for a subset external schema (§1.2) it is
    // what makes the translation well-defined.
    let schema = rel_before.schema();
    let vocab = schema.vocabulary();
    let before_facts = vocab.filter(before);
    check_equivalent(
        &before_facts,
        &rel_before.to_facts(),
        TranslateError::StatesNotEquivalent,
    )?;
    let after_facts = vocab.filter(after);
    let delta = before_facts.delta_to(&after_facts);

    let mut ops: Vec<RelOp> = Vec::new();

    if !delta.removed.is_empty() {
        let mut set = StatementSet::new();
        // Statements to re-insert after the deletion, when a heading
        // cannot deny a fact without denying innocent facts carried by
        // the same statement (e.g. Figure 9's single relation, where the
        // machine's row also asserts the operator's existence): delete
        // the whole stored statement and re-insert its remainders.
        let mut reinserts = StatementSet::new();
        let mut covered = FactBase::new();
        for fact in delta.removed.iter() {
            if covered.holds(fact) {
                continue;
            }
            let mut found = false;
            for rel in schema.relations() {
                if let Some(t) =
                    express_fact(schema, rel, fact, &before_facts, CompletionMode::Minimal)
                {
                    // A denial statement must only deny facts that are in
                    // fact being removed.
                    let stmt_facts = tuple_facts(rel, &t);
                    if stmt_facts.iter().all(|f| delta.removed.holds(f)) {
                        covered.extend(stmt_facts.iter().cloned());
                        set.add(rel.name().clone(), t);
                        found = true;
                        break;
                    }
                }
            }
            if !found {
                // Fallback: delete a stored statement asserting the fact,
                // re-inserting its remainders (the facts it carries that
                // are not being removed).
                for rel in schema.relations() {
                    let name = rel.name().as_str();
                    if let Some(u) = rel_before.statements(name).find(|u| u.asserts(fact)) {
                        covered
                            .extend(u.facts().iter().filter(|f| delta.removed.holds(f)).cloned());
                        let stored = rel_before.relation(name).expect("schema relation");
                        for r in
                            dme_relation::ops::remainders(rel, u.tuple(), &delta.removed, stored)
                        {
                            reinserts.add(rel.name().clone(), r.tuple().clone());
                        }
                        set.add(rel.name().clone(), u.tuple().clone());
                        found = true;
                        break;
                    }
                }
            }
            if !found {
                return Err(TranslateError::Inexpressible(format!(
                    "no relation can deny fact {fact}"
                )));
            }
        }
        ops.push(RelOp::Delete(set));
        if !reinserts.is_empty() {
            ops.push(RelOp::Insert(reinserts));
        }
    }

    if !delta.added.is_empty() {
        let mut set = StatementSet::new();
        for fact in delta.added.iter() {
            let mut found = false;
            // Redundantly express the fact in every relation that can:
            // inter-relation agreement constraints require the same
            // statement to appear wherever it is expressible.
            for rel in schema.relations() {
                if let Some(t) = express_fact(schema, rel, fact, &after_facts, mode) {
                    set.add(rel.name().clone(), t);
                    found = true;
                }
            }
            if !found {
                return Err(TranslateError::Inexpressible(format!(
                    "no relation can assert fact {fact}"
                )));
            }
        }
        ops.push(RelOp::Insert(set));
    }

    // Verify: the synthesized composed operation realises the same delta
    // (within the view's vocabulary).
    let mut state = rel_before.clone();
    for rop in &ops {
        state = rop
            .apply(&state)
            .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
    }
    check_equivalent(
        &after_facts,
        &state.to_facts(),
        TranslateError::VerificationFailed,
    )?;
    Ok(ops)
}

/// Attempts a **compile-time** translation of a graph operation
/// (§3.3.1: "the translation of operations from one application model to
/// an equivalent application model can be done independently of the
/// database state … such a translation could be done at
/// 'compile-time'").
///
/// The operation is translated against every supplied pair of equivalent
/// states; if all translations agree, that state-independent operation
/// is returned and may be cached and replayed against any equivalent
/// pair. `None` means the translation is state dependent over the
/// sampled pairs (as with `StateCompleted` completion across the
/// Figure 3 / Figure 8-premise pair) — fall back to per-state
/// translation.
pub fn compile_time_translation(
    op: &GraphOp,
    pairs: &[(GraphState, RelationState)],
    mode: CompletionMode,
) -> Result<Option<Vec<RelOp>>, TranslateError> {
    let mut first: Option<Vec<RelOp>> = None;
    for (g, r) in pairs {
        let ops = graph_op_to_relational(op, g, r, mode)?;
        match &first {
            None => first = Some(ops),
            Some(prev) if *prev == ops => {}
            Some(_) => return Ok(None),
        }
    }
    Ok(first)
}

/// Translates a relational operation into the equivalent graph
/// operation(s) for the given pair of equivalent states. Returns the
/// (possibly empty) composed operation — empty exactly when the
/// relational operation is the identity on this state (the idempotent
/// insertions of §3.3.1's state-dependence discussion).
pub fn relational_op_to_graph(
    op: &RelOp,
    rel_before: &RelationState,
    graph_before: &GraphState,
) -> Result<Vec<GraphOp>, TranslateError> {
    relational_op_to_compiled_graph(op, rel_before, graph_before, &graph_before.to_facts())
}

/// [`relational_op_to_graph`] against a graph state whose fact base the
/// caller already compiled: `graph_facts` must be `graph_before.to_facts()`
/// (a session snapshot carries it beside the state). Both checks still
/// run: `rel_before` must compile to `graph_facts` within the view's
/// vocabulary, and the synthesized graph operations are applied to
/// `graph_before` and the result compiled afresh.
pub fn relational_op_to_compiled_graph(
    op: &RelOp,
    rel_before: &RelationState,
    graph_before: &GraphState,
    graph_facts: &FactBase,
) -> Result<Vec<GraphOp>, TranslateError> {
    // For a subset view (§1.2), the view is compared against — and its
    // updates verified against — the conceptual facts *within the view's
    // vocabulary*; conceptual side-effects outside it (cascades onto
    // objects the view cannot see) are permitted.
    let vocab = rel_before.schema().vocabulary();
    let before_facts = rel_before.to_facts();
    check_equivalent(
        &before_facts,
        &vocab.filter(graph_facts),
        TranslateError::StatesNotEquivalent,
    )?;
    let rel_after = op
        .apply(rel_before)
        .map_err(|e| TranslateError::SourceOpFailed(e.to_string()))?;
    let after_facts = rel_after.to_facts();
    let delta = before_facts.delta_to(&after_facts);

    let schema = graph_before.schema();
    let universe = schema.universe();
    let mut ops: Vec<GraphOp> = Vec::new();
    let mut mid = graph_before.clone();

    if !delta.removed.is_empty() {
        // Seed the deletion unit from removed existence and association
        // facts; the cascade must account for exactly the removed facts.
        let mut seed_entities: Vec<EntityRef> = Vec::new();
        let mut seed_assocs: Vec<Association> = Vec::new();
        for fact in delta.removed.iter() {
            match classify(fact) {
                FactKind::Existence { entity_type } => {
                    let decl = universe.entity_type(entity_type.as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!("unknown entity type in fact {fact}"))
                    })?;
                    let key = fact.get(decl.id_characteristic().as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!(
                            "existence fact {fact} lacks identifying value"
                        ))
                    })?;
                    seed_entities.push(EntityRef::new(entity_type, key.clone()));
                }
                FactKind::Characteristic { .. } => {
                    // Covered by deleting the owning entity; checked below.
                }
                FactKind::Association { predicate } => {
                    let decl = universe.predicate(predicate.as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!("unknown predicate in fact {fact}"))
                    })?;
                    let mut roles = Vec::new();
                    for (case, et) in decl.cases() {
                        let key = fact.get(case.as_str()).ok_or_else(|| {
                            TranslateError::Inexpressible(format!(
                                "association fact {fact} lacks case {case}"
                            ))
                        })?;
                        roles.push((case.clone(), EntityRef::new(et.clone(), key.clone())));
                    }
                    seed_assocs.push(Association::new(predicate.clone(), roles));
                }
            }
        }
        let unit = deletion_unit(&mid, seed_entities, seed_assocs);
        // Choose the simplest operation realising the unit.
        let del = match (unit.entities.len(), unit.associations.len()) {
            (0, 0) => None,
            (0, 1) => Some(GraphOp::DeleteAssociation(unit.associations[0].clone())),
            (1, 0) => {
                let r = unit.entities[0]
                    .to_ref(schema)
                    .expect("entities from the state are well-formed");
                Some(GraphOp::DeleteEntity(r))
            }
            _ => Some(GraphOp::DeleteUnit(unit)),
        };
        if let Some(del) = del {
            mid = del
                .apply(&mid)
                .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
            ops.push(del);
        }
    }

    if !delta.added.is_empty() {
        // New entities: existence facts plus their characteristic facts.
        let mut new_entities: Vec<Entity> = Vec::new();
        let mut new_assocs: Vec<Association> = Vec::new();
        for fact in delta.added.iter() {
            match classify(fact) {
                FactKind::Existence { entity_type } => {
                    let decl = universe.entity_type(entity_type.as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!("unknown entity type in fact {fact}"))
                    })?;
                    let key = fact.get(decl.id_characteristic().as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!(
                            "existence fact {fact} lacks identifying value"
                        ))
                    })?;
                    let mut characteristics = vec![(decl.id_characteristic().clone(), key.clone())];
                    for (c, _) in decl.non_id_characteristics() {
                        let v = lookup_characteristic(
                            &after_facts,
                            &entity_type,
                            decl.id_characteristic(),
                            key,
                            c,
                        )
                        .ok_or_else(|| {
                            TranslateError::Inexpressible(format!(
                                "new entity {entity_type}[{key}] lacks characteristic `{c}` (graph entities are total)"
                            ))
                        })?;
                        characteristics.push((c.clone(), v));
                    }
                    new_entities.push(Entity::new(entity_type, characteristics));
                }
                FactKind::Characteristic { entity_type, .. } => {
                    // Must belong to a new entity; adding a characteristic
                    // to an existing entity has no graph operation.
                    let decl = universe.entity_type(entity_type.as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!("unknown entity type in fact {fact}"))
                    })?;
                    let key = fact.get(decl.id_characteristic().as_str());
                    let is_new = key.is_some_and(|k| {
                        delta.added.holds(&dme_logic::vocab::existence(
                            &entity_type,
                            decl.id_characteristic(),
                            k.clone(),
                        ))
                    });
                    if !is_new {
                        return Err(TranslateError::Inexpressible(format!(
                            "characteristic fact {fact} for an already-existing entity"
                        )));
                    }
                }
                FactKind::Association { predicate } => {
                    let decl = universe.predicate(predicate.as_str()).ok_or_else(|| {
                        TranslateError::Inexpressible(format!("unknown predicate in fact {fact}"))
                    })?;
                    let mut roles = Vec::new();
                    for (case, et) in decl.cases() {
                        let key = fact.get(case.as_str()).ok_or_else(|| {
                            TranslateError::Inexpressible(format!(
                                "association fact {fact} lacks case {case}"
                            ))
                        })?;
                        roles.push((case.clone(), EntityRef::new(et.clone(), key.clone())));
                    }
                    new_assocs.push(Association::new(predicate.clone(), roles));
                }
            }
        }

        // Plan: free entities first, then units for totality-bound
        // entities, then remaining associations.
        let mut used_assocs: Vec<bool> = vec![false; new_assocs.len()];
        let mut unit_entities: Vec<Entity> = Vec::new();
        for e in new_entities {
            if schema.required_roles(e.entity_type.as_str()).is_empty() {
                ops.push(GraphOp::InsertEntity(e));
            } else {
                unit_entities.push(e);
            }
        }
        for e in unit_entities {
            let r = e.to_ref(schema).ok_or_else(|| {
                TranslateError::Inexpressible(format!("entity {e} lacks identifying value"))
            })?;
            let mut unit = SemanticUnit::new();
            for (pred, role) in schema.required_roles(e.entity_type.as_str()) {
                let found = new_assocs.iter().enumerate().find(|(i, a)| {
                    !used_assocs[*i]
                        && a.predicate == pred
                        && a.role(role.as_str()).is_some_and(|x| *x == r)
                });
                match found {
                    Some((i, a)) => {
                        used_assocs[i] = true;
                        unit = unit.with_association(a.clone());
                    }
                    None => {
                        return Err(TranslateError::Inexpressible(format!(
                        "new entity {r} requires `{pred}:{role}` but no such association is added"
                    )))
                    }
                }
            }
            unit = unit.with_entity(e);
            ops.push(GraphOp::InsertUnit(unit));
        }
        for (i, a) in new_assocs.into_iter().enumerate() {
            if !used_assocs[i] {
                ops.push(GraphOp::InsertAssociation(a));
            }
        }

        // Apply the planned insertions.
        for gop in ops.iter().skip_while(|o| {
            matches!(
                o,
                GraphOp::DeleteAssociation(_) | GraphOp::DeleteEntity(_) | GraphOp::DeleteUnit(_)
            )
        }) {
            mid = gop
                .apply(&mid)
                .map_err(|e| TranslateError::VerificationFailed(e.to_string()))?;
        }
    }

    check_equivalent(
        &after_facts,
        &vocab.filter(&mid.to_facts()),
        TranslateError::VerificationFailed,
    )?;
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_graph::fixtures as gfix;
    use dme_relation::fixtures as rfix;
    use dme_value::{tuple, Atom};

    fn emp(name: &str) -> EntityRef {
        EntityRef::new("employee", Atom::str(name))
    }

    fn machine(number: &str) -> EntityRef {
        EntityRef::new("machine", Atom::str(number))
    }

    fn gw_tm_supervision() -> Association {
        Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
        )
    }

    #[test]
    fn figure4_and_figure3_are_state_equivalent() {
        let r = state_equivalent(&gfix::figure4_state(), &rfix::figure3_state());
        assert!(r.is_equivalent(), "{r}");
    }

    #[test]
    fn materialization_rebuilds_figure3_from_figure4() {
        let schema = std::sync::Arc::clone(rfix::figure3_state().schema());
        let facts = gfix::figure4_state().to_facts();
        let state = materialize_relational_state(&schema, &facts).unwrap();
        assert_eq!(state, rfix::figure3_state());
    }

    #[test]
    fn materialization_rebuilds_figure9_view() {
        let schema = std::sync::Arc::clone(rfix::figure9_state().schema());
        let facts = gfix::figure4_state().to_facts();
        let state = materialize_relational_state(&schema, &facts).unwrap();
        assert_eq!(state, rfix::figure9_state());
    }

    #[test]
    fn materialization_of_empty_facts_is_the_empty_state() {
        let schema = std::sync::Arc::clone(rfix::figure3_state().schema());
        let state = materialize_relational_state(&schema, &FactBase::new()).unwrap();
        assert!(state.is_empty());
    }

    #[test]
    fn figure6_insertion_translates_to_figure7_tuple_state_completed() {
        // The paper's §3.3.1 example, literal form: the inserted tuple is
        // (G.Wayshum, T.Manhart, NZ745) — values "dependent upon the
        // database state of Figure 3".
        let ops = graph_op_to_relational(
            &GraphOp::InsertAssociation(gw_tm_supervision()),
            &gfix::figure4_state(),
            &rfix::figure3_state(),
            CompletionMode::StateCompleted,
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        let RelOp::Insert(set) = &ops[0] else {
            panic!("expected insert")
        };
        let tuples: Vec<_> = set.tuples("Jobs").cloned().collect();
        assert_eq!(tuples, vec![tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
        // And the result is Figure 7.
        assert_eq!(
            ops[0].apply(&rfix::figure3_state()).unwrap(),
            rfix::figure7_state()
        );
    }

    #[test]
    fn figure8_same_graph_op_different_relational_tuple() {
        // "Suppose that the semantic graph state of Figure 4 had no
        // operation association involving T.Manhart. This would not
        // change the graph operation needed… [but] would change which
        // tuple needed to be added" — Figure 8's null-bearing tuple.
        let ops = graph_op_to_relational(
            &GraphOp::InsertAssociation(gw_tm_supervision()),
            &gfix::figure8_premise_state(),
            &rfix::figure8_premise_state(),
            CompletionMode::StateCompleted,
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        let RelOp::Insert(set) = &ops[0] else {
            panic!("expected insert")
        };
        let tuples: Vec<_> = set.tuples("Jobs").cloned().collect();
        assert_eq!(tuples, vec![tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        assert_eq!(
            ops[0].apply(&rfix::figure8_premise_state()).unwrap(),
            rfix::figure8_state()
        );
    }

    #[test]
    fn minimal_mode_produces_one_state_independent_tuple() {
        // In Minimal mode the same tuple is inserted in both states —
        // normalization absorbs the state dependence.
        for (g, r) in [
            (gfix::figure4_state(), rfix::figure3_state()),
            (gfix::figure8_premise_state(), rfix::figure8_premise_state()),
        ] {
            let ops = graph_op_to_relational(
                &GraphOp::InsertAssociation(gw_tm_supervision()),
                &g,
                &r,
                CompletionMode::Minimal,
            )
            .unwrap();
            let RelOp::Insert(set) = &ops[0] else {
                panic!("expected insert")
            };
            let tuples: Vec<_> = set.tuples("Jobs").cloned().collect();
            assert_eq!(tuples, vec![tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        }
    }

    #[test]
    fn machine_unit_insertion_translates_to_multi_relation_insert() {
        let unit = SemanticUnit::new()
            .with_entity(Entity::new(
                "machine",
                [("number", Atom::str("NZ745")), ("type", Atom::str("lathe"))],
            ))
            .with_association(Association::new(
                "operate",
                [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
            ));
        let ops = graph_op_to_relational(
            &GraphOp::InsertUnit(unit),
            &gfix::figure8_premise_state(),
            &rfix::figure8_premise_state(),
            CompletionMode::Minimal,
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        let RelOp::Insert(set) = &ops[0] else {
            panic!("expected insert")
        };
        assert!(set.tuples("Operate").count() > 0);
        assert!(set.tuples("Jobs").count() > 0);
        assert_eq!(
            ops[0].apply(&rfix::figure8_premise_state()).unwrap(),
            rfix::figure3_state()
        );
    }

    #[test]
    fn machine_unit_deletion_translates_to_cascading_delete() {
        let unit = deletion_unit(&gfix::figure4_state(), [machine("NZ745")], []);
        let ops = graph_op_to_relational(
            &GraphOp::DeleteUnit(unit),
            &gfix::figure4_state(),
            &rfix::figure3_state(),
            CompletionMode::Minimal,
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], RelOp::Delete(_)));
        assert_eq!(
            ops[0].apply(&rfix::figure3_state()).unwrap(),
            rfix::figure8_premise_state()
        );
    }

    #[test]
    fn erroring_graph_op_reports_source_failure() {
        // Inserting an existing association errors on the graph side.
        let existing = Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("C.Gershag"))],
        );
        let err = graph_op_to_relational(
            &GraphOp::InsertAssociation(existing),
            &gfix::figure4_state(),
            &rfix::figure3_state(),
            CompletionMode::Minimal,
        )
        .unwrap_err();
        assert!(matches!(err, TranslateError::SourceOpFailed(_)));
    }

    #[test]
    fn translation_requires_equivalent_states() {
        let err = graph_op_to_relational(
            &GraphOp::InsertAssociation(gw_tm_supervision()),
            &gfix::figure8_premise_state(),
            &rfix::figure3_state(),
            CompletionMode::Minimal,
        )
        .unwrap_err();
        assert!(matches!(err, TranslateError::StatesNotEquivalent(_)));
    }

    #[test]
    fn relational_insert_translates_to_insert_association() {
        let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let gops =
            relational_op_to_graph(&op, &rfix::figure3_state(), &gfix::figure4_state()).unwrap();
        assert_eq!(gops, vec![GraphOp::InsertAssociation(gw_tm_supervision())]);
    }

    #[test]
    fn idempotent_relational_insert_translates_to_empty_composition() {
        // Inserting an already-true statement is the identity on the
        // relation side; its graph equivalent is the empty composition —
        // and only state-dependently so (§3.3.1).
        let op = RelOp::insert("Jobs", [tuple![Value::Null, "T.Manhart", "NZ745"]]);
        let gops =
            relational_op_to_graph(&op, &rfix::figure3_state(), &gfix::figure4_state()).unwrap();
        assert!(gops.is_empty());
    }

    #[test]
    fn relational_combined_insert_translates_to_figure6() {
        let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
        let gops =
            relational_op_to_graph(&op, &rfix::figure3_state(), &gfix::figure4_state()).unwrap();
        assert_eq!(gops.len(), 1);
        let out = GraphOp::apply_all(&gops, &gfix::figure4_state()).unwrap();
        assert_eq!(out, gfix::figure6_state());
    }

    #[test]
    fn relational_employee_insert_translates_to_insert_entity() {
        let premise_rel = {
            // Figure 3 without G.Wayshum anywhere: build from scratch.
            let op = RelOp::delete_set(
                StatementSet::new()
                    .with("Employees", tuple!["G.Wayshum", 50])
                    .with("Jobs", tuple!["G.Wayshum", "C.Gershag", Value::Null]),
            );
            op.apply(&rfix::figure3_state()).unwrap()
        };
        let premise_graph = {
            let ops = vec![
                GraphOp::DeleteAssociation(Association::new(
                    "supervise",
                    [("agent", emp("G.Wayshum")), ("object", emp("C.Gershag"))],
                )),
                GraphOp::DeleteEntity(emp("G.Wayshum")),
            ];
            GraphOp::apply_all(&ops, &gfix::figure4_state()).unwrap()
        };
        let op = RelOp::insert("Employees", [tuple!["G.Wayshum", 50]]);
        let gops = relational_op_to_graph(&op, &premise_rel, &premise_graph).unwrap();
        assert_eq!(gops.len(), 1);
        assert!(matches!(gops[0], GraphOp::InsertEntity(_)));
    }

    #[test]
    fn relational_machine_insert_translates_to_insert_unit() {
        let op = RelOp::insert_set(
            StatementSet::new()
                .with("Operate", tuple!["T.Manhart", "NZ745", "lathe"])
                .with("Jobs", tuple![Value::Null, "T.Manhart", "NZ745"]),
        );
        let gops = relational_op_to_graph(
            &op,
            &rfix::figure8_premise_state(),
            &gfix::figure8_premise_state(),
        )
        .unwrap();
        assert_eq!(gops.len(), 1);
        assert!(matches!(&gops[0], GraphOp::InsertUnit(u) if u.len() == 2));
        let out = GraphOp::apply_all(&gops, &gfix::figure8_premise_state()).unwrap();
        assert_eq!(out, gfix::figure4_state());
    }

    #[test]
    fn relational_delete_translates_to_delete_unit() {
        let op = RelOp::delete("Jobs", [tuple![Value::Null, "T.Manhart", "NZ745"]]);
        let gops =
            relational_op_to_graph(&op, &rfix::figure3_state(), &gfix::figure4_state()).unwrap();
        assert_eq!(gops.len(), 1);
        assert!(matches!(&gops[0], GraphOp::DeleteUnit(_)));
        let out = GraphOp::apply_all(&gops, &gfix::figure4_state()).unwrap();
        assert_eq!(out, gfix::figure8_premise_state());
    }

    #[test]
    fn relational_supervision_delete_translates_to_delete_association() {
        let op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let gops =
            relational_op_to_graph(&op, &rfix::figure7_state(), &gfix::figure6_state()).unwrap();
        assert_eq!(gops, vec![GraphOp::DeleteAssociation(gw_tm_supervision())]);
    }

    #[test]
    fn compile_time_translation_minimal_mode_succeeds() {
        // §3.3.1: with Minimal completion the supervision insertion is
        // state independent — one relational operation serves both the
        // Figure 3 pair and the Figure 8 premise pair.
        let pairs = vec![
            (gfix::figure4_state(), rfix::figure3_state()),
            (gfix::figure8_premise_state(), rfix::figure8_premise_state()),
        ];
        let gop = GraphOp::InsertAssociation(gw_tm_supervision());
        let compiled = compile_time_translation(&gop, &pairs, CompletionMode::Minimal).unwrap();
        let ops = compiled.expect("minimal completion is state independent");
        // Replaying the compiled operation on either pair stays correct.
        for (g, r) in &pairs {
            let g_after = gop.apply(g).unwrap();
            let r_after = RelOp::apply_all(&ops, r).unwrap();
            assert!(state_equivalent(&g_after, &r_after).is_equivalent());
        }
    }

    #[test]
    fn compile_time_translation_state_completed_fails() {
        // With StateCompleted completion the inserted tuples differ
        // (Figure 7 vs Figure 8), so no compile-time translation exists.
        let pairs = vec![
            (gfix::figure4_state(), rfix::figure3_state()),
            (gfix::figure8_premise_state(), rfix::figure8_premise_state()),
        ];
        let gop = GraphOp::InsertAssociation(gw_tm_supervision());
        let compiled =
            compile_time_translation(&gop, &pairs, CompletionMode::StateCompleted).unwrap();
        assert!(compiled.is_none());
    }

    #[test]
    fn compile_time_translation_propagates_errors() {
        let pairs = vec![(gfix::figure8_premise_state(), rfix::figure3_state())];
        let gop = GraphOp::InsertAssociation(gw_tm_supervision());
        assert!(matches!(
            compile_time_translation(&gop, &pairs, CompletionMode::Minimal),
            Err(TranslateError::StatesNotEquivalent(_))
        ));
    }

    #[test]
    fn round_trip_preserves_equivalence() {
        // graph op → relational ops → re-translate back: both sides land
        // on equivalent states.
        let gop = GraphOp::InsertAssociation(gw_tm_supervision());
        let rops = graph_op_to_relational(
            &gop,
            &gfix::figure4_state(),
            &rfix::figure3_state(),
            CompletionMode::StateCompleted,
        )
        .unwrap();
        let mut rel = rfix::figure3_state();
        let mut graph = gfix::figure4_state();
        for rop in &rops {
            let gops = relational_op_to_graph(rop, &rel, &graph).unwrap();
            rel = rop.apply(&rel).unwrap();
            graph = GraphOp::apply_all(&gops, &graph).unwrap();
        }
        assert!(state_equivalent(&rel, &graph).is_equivalent());
        assert_eq!(graph, gfix::figure6_state());
    }
}
