//! The semantic algebra: case-join, predicate-join and conjunction.
//!
//! §3.2.1: "to reflect the semantics of the relations, three distinct
//! operations, *case-join*, *predicate-join* and *conjunction*, replace
//! the syntactic *join*":
//!
//! * [`case_join`] "combines two relations describing different
//!   characteristics of the same predicate-case pair into a single
//!   relation" (also [`existence_join`] for the `be <type>:object` pair);
//! * [`predicate_join`] "combines two relations describing different
//!   cases of the same predicate into a single relation";
//! * [`conjunction`] "combines two relations containing different
//!   predicates into a single relation".
//!
//! All three are *retrieval* operations: they produce a
//! [`DerivedRelation`] — a heading plus tuples — for querying and for
//! expressing constraints, not a new base relation. Mechanically each is
//! a participant-merging equi-join on identifying characteristics; the
//! semantic preconditions (which pairs/predicates/entity types the
//! operands must share) are what distinguish them, exactly as the paper
//! distinguishes them by what the operands *describe*.

use std::collections::BTreeSet;
use std::fmt;

use dme_value::{Symbol, Tuple, Value};

use crate::schema::{Participant, RelationSchema};
use crate::state::RelationState;

/// A query result: a heading plus a set of tuples.
///
/// Derived headings are not registered in any schema; they exist to give
/// results their semantic interpretation (which participant fills which
/// predicate:case pairs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivedRelation {
    schema: RelationSchema,
    tuples: BTreeSet<Tuple>,
}

impl DerivedRelation {
    /// Wraps a base relation of a state as a derived relation.
    pub fn base(state: &RelationState, name: &str) -> Option<DerivedRelation> {
        let schema = state.schema().relation(name)?.clone();
        let tuples = state
            .relation(name)?
            .iter()
            .map(|s| s.tuple().clone())
            .collect();
        Some(DerivedRelation { schema, tuples })
    }

    /// Builds a derived relation from parts (used internally and by
    /// tests).
    pub fn from_parts(schema: RelationSchema, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        DerivedRelation {
            schema,
            tuples: tuples.into_iter().collect(),
        }
    }

    /// The heading.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Selection: keep tuples satisfying the predicate.
    pub fn select(&self, keep: impl Fn(&Tuple) -> bool) -> DerivedRelation {
        DerivedRelation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().filter(|t| keep(t)).cloned().collect(),
        }
    }

    /// Semantic projection onto a subset of participants (whole
    /// participants, never single characteristic columns — projecting
    /// away half a participant would leave dangling characteristics).
    pub fn project(&self, participants: &[usize]) -> Result<DerivedRelation, AlgebraError> {
        let mut cols = Vec::new();
        let mut parts = Vec::new();
        for &pi in participants {
            let p = self
                .schema
                .participants()
                .get(pi)
                .ok_or(AlgebraError::UnknownParticipant(pi))?;
            parts.push(p.clone());
            let base = self.schema.participant_offset(pi);
            cols.extend(base..base + p.width());
        }
        let name = Symbol::new(format!("π({})", self.schema.name()));
        let schema = RelationSchema::new(name, parts);
        let tuples = self
            .tuples
            .iter()
            .filter_map(|t| t.project(&cols))
            .collect();
        Ok(DerivedRelation { schema, tuples })
    }
}

impl fmt::Display for DerivedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} tuples):", self.schema.name(), self.tuples.len())?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

/// Errors raised by the semantic algebra.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgebraError {
    /// A participant index is out of range.
    UnknownParticipant(usize),
    /// The operands do not both fill the given predicate:case pair.
    PairNotShared {
        /// The pair's predicate.
        predicate: Symbol,
        /// The pair's case.
        case: Symbol,
    },
    /// The operands do not both assert existence of the entity type.
    ExistenceNotShared(Symbol),
    /// The operands share no case of the predicate.
    NoSharedCase(Symbol),
    /// The operands' merged participants have different entity types.
    EntityTypeMismatch {
        /// The left participant's entity type.
        left: Symbol,
        /// The right participant's entity type.
        right: Symbol,
    },
    /// Conjunction requires the operands to describe different predicates.
    PredicatesNotDisjoint(Symbol),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownParticipant(i) => write!(f, "no participant {i}"),
            AlgebraError::PairNotShared { predicate, case } => {
                write!(f, "pair `{predicate}:{case}` not filled by both operands")
            }
            AlgebraError::ExistenceNotShared(t) => {
                write!(f, "existence of `{t}` not asserted by both operands")
            }
            AlgebraError::NoSharedCase(p) => {
                write!(f, "operands share no case of predicate `{p}`")
            }
            AlgebraError::EntityTypeMismatch { left, right } => {
                write!(
                    f,
                    "cannot merge participants of types `{left}` and `{right}`"
                )
            }
            AlgebraError::PredicatesNotDisjoint(p) => {
                write!(f, "conjunction operands both describe predicate `{p}`")
            }
        }
    }
}

impl std::error::Error for AlgebraError {}

/// The engine shared by all three joins: merge the participant pairs in
/// `merges` (left index, right index), equi-joining on identifying
/// characteristics and on any shared characteristic columns.
fn join_on(
    left: &DerivedRelation,
    right: &DerivedRelation,
    merges: &[(usize, usize)],
) -> Result<DerivedRelation, AlgebraError> {
    // Validate indices and entity types.
    for &(lp, rp) in merges {
        let l = left
            .schema
            .participants()
            .get(lp)
            .ok_or(AlgebraError::UnknownParticipant(lp))?;
        let r = right
            .schema
            .participants()
            .get(rp)
            .ok_or(AlgebraError::UnknownParticipant(rp))?;
        if l.entity_type != r.entity_type {
            return Err(AlgebraError::EntityTypeMismatch {
                left: l.entity_type.clone(),
                right: r.entity_type.clone(),
            });
        }
    }

    let merged_right: BTreeSet<usize> = merges.iter().map(|&(_, rp)| rp).collect();

    // Build result participants and, per participant, the recipe for
    // constructing result columns from (left tuple, right tuple).
    enum Src {
        Left(usize),
        Right(usize),
    }
    let mut parts: Vec<Participant> = Vec::new();
    let mut recipe: Vec<Src> = Vec::new();
    // Identifying columns that must be equal *and non-null* — the join
    // condition proper: (left col, right col).
    let mut id_agreements: Vec<(usize, usize)> = Vec::new();
    // Shared non-identifying characteristics that must simply be equal
    // (null == null allowed): both statements speak about the same
    // participant, so where both carry the same characteristic they must
    // say the same thing.
    let mut shared_agreements: Vec<(usize, usize)> = Vec::new();

    for (lpi, lp) in left.schema.participants().iter().enumerate() {
        let lbase = left.schema.participant_offset(lpi);
        let merge = merges.iter().find(|&&(l, _)| l == lpi).map(|&(_, r)| r);
        match merge {
            None => {
                parts.push(lp.clone());
                recipe.extend((0..lp.width()).map(|c| Src::Left(lbase + c)));
            }
            Some(rpi) => {
                let rp = &right.schema.participants()[rpi];
                let rbase = right.schema.participant_offset(rpi);
                id_agreements.push((lbase, rbase));
                let mut columns = lp.columns.clone();
                recipe.extend((0..lp.width()).map(|c| Src::Left(lbase + c)));
                for (ci, col) in rp.columns.iter().enumerate() {
                    match lp.column_of(col.characteristic.as_str()) {
                        Some(lci) => {
                            if ci != 0 {
                                shared_agreements.push((lbase + lci, rbase + ci));
                            }
                        }
                        None => {
                            columns.push(col.clone());
                            recipe.push(Src::Right(rbase + ci));
                        }
                    }
                }
                parts.push(Participant {
                    pairs: lp.pairs.union(&rp.pairs).cloned().collect(),
                    entity_type: lp.entity_type.clone(),
                    columns,
                });
            }
        }
    }
    for (rpi, rp) in right.schema.participants().iter().enumerate() {
        if merged_right.contains(&rpi) {
            continue;
        }
        let rbase = right.schema.participant_offset(rpi);
        parts.push(rp.clone());
        recipe.extend((0..rp.width()).map(|c| Src::Right(rbase + c)));
    }

    let name = Symbol::new(format!("({}⋈{})", left.schema.name(), right.schema.name()));
    let schema = RelationSchema::new(name, parts);

    let mut tuples = BTreeSet::new();
    for lt in &left.tuples {
        for rt in &right.tuples {
            let id_ok = id_agreements
                .iter()
                .all(|&(lc, rc)| !lt[lc].is_null() && lt[lc] == rt[rc]);
            let shared_ok = shared_agreements.iter().all(|&(lc, rc)| lt[lc] == rt[rc]);
            if !id_ok || !shared_ok {
                continue;
            }
            let values: Vec<Value> = recipe
                .iter()
                .map(|s| match s {
                    Src::Left(c) => lt[*c].clone(),
                    Src::Right(c) => rt[*c].clone(),
                })
                .collect();
            tuples.insert(Tuple::new(values));
        }
    }

    Ok(DerivedRelation { schema, tuples })
}

/// Case-join: both operands describe the same predicate:case pair; the
/// result combines their characteristics of that participant.
pub fn case_join(
    left: &DerivedRelation,
    right: &DerivedRelation,
    predicate: &str,
    case: &str,
) -> Result<DerivedRelation, AlgebraError> {
    let lp = left
        .schema
        .participant_filling(predicate, case)
        .ok_or_else(|| AlgebraError::PairNotShared {
            predicate: Symbol::new(predicate),
            case: Symbol::new(case),
        })?;
    let rp = right
        .schema
        .participant_filling(predicate, case)
        .ok_or_else(|| AlgebraError::PairNotShared {
            predicate: Symbol::new(predicate),
            case: Symbol::new(case),
        })?;
    join_on(left, right, &[(lp, rp)])
}

/// Case-join on the existence pair `be <entity_type>:object`.
pub fn existence_join(
    left: &DerivedRelation,
    right: &DerivedRelation,
    entity_type: &str,
) -> Result<DerivedRelation, AlgebraError> {
    let find = |rel: &DerivedRelation| {
        rel.schema
            .participants()
            .iter()
            .position(|p| p.asserts_existence() && p.entity_type.as_str() == entity_type)
    };
    let lp =
        find(left).ok_or_else(|| AlgebraError::ExistenceNotShared(Symbol::new(entity_type)))?;
    let rp =
        find(right).ok_or_else(|| AlgebraError::ExistenceNotShared(Symbol::new(entity_type)))?;
    join_on(left, right, &[(lp, rp)])
}

/// Predicate-join: both operands describe cases of `predicate`; the
/// result joins on all shared cases and covers the union of the cases.
pub fn predicate_join(
    left: &DerivedRelation,
    right: &DerivedRelation,
    predicate: &str,
) -> Result<DerivedRelation, AlgebraError> {
    let lb = left.schema.predicate_bindings(predicate);
    let rb = right.schema.predicate_bindings(predicate);
    let merges: Vec<(usize, usize)> = lb
        .iter()
        .filter_map(|(case, &lp)| rb.get(case).map(|&rp| (lp, rp)))
        .collect();
    if merges.is_empty() {
        return Err(AlgebraError::NoSharedCase(Symbol::new(predicate)));
    }
    join_on(left, right, &merges)
}

/// Conjunction: the operands describe *different* predicates and are
/// combined through a shared participant (given by index on each side).
///
/// ```
/// use dme_relation::algebra::{conjunction, DerivedRelation};
/// use dme_relation::fixtures;
///
/// // "There is an employee named X aged Y who operates machine Z":
/// let state = fixtures::figure3_state();
/// let employees = DerivedRelation::base(&state, "Employees").unwrap();
/// let operate = DerivedRelation::base(&state, "Operate").unwrap();
/// let combined = conjunction(&employees, &operate, 0, 0).unwrap();
/// assert_eq!(combined.len(), 2);
/// ```
pub fn conjunction(
    left: &DerivedRelation,
    right: &DerivedRelation,
    left_participant: usize,
    right_participant: usize,
) -> Result<DerivedRelation, AlgebraError> {
    if let Some(shared) = left
        .schema
        .mentioned_predicates()
        .intersection(&right.schema.mentioned_predicates())
        .next()
    {
        return Err(AlgebraError::PredicatesNotDisjoint(shared.clone()));
    }
    join_on(left, right, &[(left_participant, right_participant)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_value::tuple;

    fn f3() -> RelationState {
        fixtures::figure3_state()
    }

    #[test]
    fn base_wraps_relations() {
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        assert_eq!(emp.len(), 3);
        assert!(!emp.is_empty());
        assert!(DerivedRelation::base(&s, "Ghost").is_none());
    }

    #[test]
    fn conjunction_of_employees_and_operate() {
        // "There is an employee named X aged Y who operates machine Z of
        // type W" — different predicates (existence vs operate), combined
        // through the employee participant.
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        let j = conjunction(&emp, &op, 0, 0).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j
            .tuples()
            .contains(&tuple!["T.Manhart", 32, "NZ745", "lathe"]));
        assert!(j
            .tuples()
            .contains(&tuple!["C.Gershag", 40, "JCL181", "press"]));
        // The merged participant carries both existence and operate:agent.
        let p0 = &j.schema().participants()[0];
        assert!(p0.asserts_existence());
        assert!(p0.fills("operate", "agent"));
    }

    #[test]
    fn conjunction_rejects_shared_predicates() {
        let s = f3();
        let jobs = DerivedRelation::base(&s, "Jobs").unwrap();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        assert_eq!(
            conjunction(&jobs, &op, 2, 1).unwrap_err(),
            AlgebraError::PredicatesNotDisjoint(Symbol::new("operate"))
        );
    }

    #[test]
    fn case_join_on_operate_object() {
        // Jobs and Operate both describe operate:object — join machines.
        let s = f3();
        let jobs = DerivedRelation::base(&s, "Jobs").unwrap();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        let j = case_join(&jobs, &op, "operate", "object").unwrap();
        // Each Jobs row joins its machine's Operate row.
        assert_eq!(j.len(), 2);
        assert!(j.tuples().contains(&tuple![
            "G.Wayshum",
            "C.Gershag",
            "JCL181",
            "press",
            "C.Gershag"
        ]));
        assert!(j.tuples().contains(&tuple![
            dme_value::Value::Null,
            "T.Manhart",
            "NZ745",
            "lathe",
            "T.Manhart"
        ]));
    }

    #[test]
    fn case_join_requires_shared_pair() {
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        assert!(matches!(
            case_join(&emp, &op, "operate", "object"),
            Err(AlgebraError::PairNotShared { .. })
        ));
    }

    #[test]
    fn predicate_join_operate() {
        let s = f3();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        let jobs = DerivedRelation::base(&s, "Jobs").unwrap();
        let j = predicate_join(&op, &jobs, "operate").unwrap();
        // Shared cases: agent and object → join on both; supervisor comes
        // along from Jobs.
        assert_eq!(j.len(), 2);
        assert!(j
            .tuples()
            .contains(&tuple!["C.Gershag", "JCL181", "press", "G.Wayshum"]));
        assert!(j.tuples().contains(&tuple![
            "T.Manhart",
            "NZ745",
            "lathe",
            dme_value::Value::Null
        ]));
    }

    #[test]
    fn predicate_join_requires_shared_case() {
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        assert_eq!(
            predicate_join(&emp, &op, "operate").unwrap_err(),
            AlgebraError::NoSharedCase(Symbol::new("operate"))
        );
    }

    #[test]
    fn existence_join_machines() {
        // Two views of machines: Operate asserts machine existence. Join a
        // projected copy with itself through existence.
        let s = f3();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        let machines = op.project(&[1]).unwrap();
        assert_eq!(machines.len(), 2);
        let j = existence_join(&machines, &machines.clone(), "machine").unwrap();
        assert_eq!(j.len(), 2); // self-join on key: same two machines
        assert!(matches!(
            existence_join(
                &machines,
                &DerivedRelation::base(&s, "Jobs").unwrap(),
                "machine"
            ),
            Err(AlgebraError::ExistenceNotShared(_))
        ));
    }

    #[test]
    fn entity_type_mismatch_detected() {
        let s = f3();
        let op = DerivedRelation::base(&s, "Operate").unwrap();
        // Merge employee participant with machine participant directly.
        let err = join_on(&op, &op.clone(), &[(0, 1)]).unwrap_err();
        assert!(matches!(err, AlgebraError::EntityTypeMismatch { .. }));
    }

    #[test]
    fn select_filters() {
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        let over35 = emp.select(|t| t[1].as_atom().and_then(|a| a.as_int()).unwrap_or(0) > 35);
        assert_eq!(over35.len(), 2);
    }

    #[test]
    fn project_validates_indices() {
        let s = f3();
        let emp = DerivedRelation::base(&s, "Employees").unwrap();
        assert!(matches!(
            emp.project(&[7]),
            Err(AlgebraError::UnknownParticipant(7))
        ));
        let p = emp.project(&[0]).unwrap();
        assert_eq!(p.schema().arity(), 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn join_null_keys_never_match() {
        let s = f3();
        let jobs = DerivedRelation::base(&s, "Jobs").unwrap();
        // Join Jobs with itself on the supervisor participant: the row
        // with a null supervisor must not join anything.
        let j = join_on(&jobs, &jobs.clone(), &[(0, 0)]).unwrap();
        for t in j.tuples() {
            assert!(!t[0].is_null());
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            AlgebraError::NoSharedCase(Symbol::new("operate")).to_string(),
            "operands share no case of predicate `operate`"
        );
    }
}
