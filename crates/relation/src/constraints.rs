//! The constraint language of the semantic relation model.
//!
//! §3.2.1 lists the constraints of the machine-shop example:
//!
//! 1. *"The names in the first column of Operate must be a subset of the
//!    names in the first column of Employees"* — [`Constraint::Subset`];
//! 2. *"The first column of Operate may have no null values since every
//!    machine must have an operator"* — [`Constraint::NotNull`];
//! 3. *"A specific serial number may occur only once in the second column
//!    of Operate since each machine may have no more than one operator"*
//!    — [`Constraint::Unique`];
//! 4. *"The matching of operators and machines occurring in Operate must
//!    be the same as that in Jobs"* — [`Constraint::Agreement`].
//!
//! The paper adds that the full set (in Borkin's thesis) contains
//! "semantic counterparts of functional dependencies, subset constraints
//! and other such constraints" — [`Constraint::Functional`] and
//! [`Constraint::Implies`] round out what the workspace's examples and
//! equivalence proofs need.
//!
//! Null handling: a projection used by `Subset`, `Unique`, `Functional`
//! and `Agreement` only considers rows whose projected columns are all
//! non-null; a null means "no statement", so a partially-null row simply
//! contributes no evidence.

use std::fmt;

use dme_value::{Symbol, Tuple};

use crate::schema::RelationalSchema;
use crate::state::RelationState;

/// A reference to a projection of one relation: `(relation, columns)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColsRef {
    /// The relation name.
    pub relation: Symbol,
    /// Flat column indices.
    pub columns: Vec<usize>,
}

impl ColsRef {
    /// Creates a reference.
    pub fn new(relation: impl Into<Symbol>, columns: impl IntoIterator<Item = usize>) -> Self {
        ColsRef {
            relation: relation.into(),
            columns: columns.into_iter().collect(),
        }
    }

    fn validate(&self, schema: &RelationalSchema) -> Result<(), String> {
        let rel = schema
            .relation(self.relation.as_str())
            .ok_or_else(|| format!("unknown relation `{}`", self.relation))?;
        for &c in &self.columns {
            if c >= rel.arity() {
                return Err(format!(
                    "column {c} out of range for `{}` (arity {})",
                    self.relation,
                    rel.arity()
                ));
            }
        }
        Ok(())
    }

    /// The projection of `state` on these columns, dropping rows with a
    /// null in any projected column.
    pub fn project(&self, state: &RelationState) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = state
            .tuples(self.relation.as_str())
            .filter_map(|t| t.project(&self.columns))
            .filter(|t| !t.has_null())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for ColsRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{:?}]", self.relation, self.columns)
    }
}

/// A violated constraint, with the tuples that witness the violation.
///
/// The human-readable description and detail are built only when the
/// violation is displayed: the closure enumerator rejects thousands of
/// candidate states and reads nothing but the rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintViolation(Box<Violation>);

#[derive(Clone, Debug, PartialEq, Eq)]
struct Violation {
    constraint: Constraint,
    witness: Witness,
}

/// The evidence of a violation; its shape depends on the constraint kind.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Witness {
    /// `Subset`: a row missing from the containing projection.
    /// `NotNull`, `Implies`: the offending tuple.
    Row(Tuple),
    /// `Unique`: two tuples sharing a key. `Functional`: two tuples
    /// agreeing on the determinant but not on the dependents.
    Pair {
        first: Tuple,
        second: Tuple,
        shared: Tuple,
    },
    /// `Agreement`: the sizes of the two differing projections.
    Sizes { left: usize, right: usize },
}

impl ConstraintViolation {
    /// Description of the violated constraint (see
    /// [`Constraint::describe`]).
    pub fn description(&self) -> String {
        self.0.constraint.describe()
    }

    /// What went wrong, naming the witnessing tuples.
    pub fn detail(&self) -> String {
        match (&self.0.constraint, &self.0.witness) {
            (Constraint::Subset { from, to }, Witness::Row(row)) => {
                format!("{row} present in {from} but not in {to}")
            }
            (Constraint::NotNull { column, .. }, Witness::Row(t)) => {
                format!("tuple {t} has null in column {column}")
            }
            (
                Constraint::Unique { .. },
                Witness::Pair {
                    first,
                    second,
                    shared,
                },
            ) => {
                format!("tuples {first} and {second} share key {shared}")
            }
            (
                Constraint::Functional { .. },
                Witness::Pair {
                    first,
                    second,
                    shared,
                },
            ) => {
                format!("tuples {first} and {second} agree on {shared} but disagree on dependents")
            }
            (Constraint::Agreement { .. }, Witness::Sizes { left, right }) => {
                format!("projections differ: {left} rows vs {right} rows")
            }
            (
                Constraint::Implies {
                    if_nonnull,
                    then_nonnull,
                    ..
                },
                Witness::Row(t),
            ) => {
                format!("tuple {t} has non-null column {if_nonnull} but null column {then_nonnull}")
            }
            _ => unreachable!("each constraint kind builds its own witness shape"),
        }
    }
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint violated: {} — {}",
            self.description(),
            self.detail()
        )
    }
}

impl std::error::Error for ConstraintViolation {}

/// One integrity constraint of a relational application model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// Projection containment: `from ⊆ to`.
    Subset {
        /// The contained projection.
        from: ColsRef,
        /// The containing projection.
        to: ColsRef,
    },
    /// A column may not hold null.
    NotNull {
        /// The relation.
        relation: Symbol,
        /// The flat column index.
        column: usize,
    },
    /// The projected (non-null) values identify rows: no two distinct
    /// tuples may agree on all of `columns`.
    Unique {
        /// The relation.
        relation: Symbol,
        /// The flat column indices forming the key.
        columns: Vec<usize>,
    },
    /// A functional dependency: tuples agreeing (non-null) on
    /// `determinant` must agree on `dependent`.
    Functional {
        /// The relation.
        relation: Symbol,
        /// Determinant columns.
        determinant: Vec<usize>,
        /// Dependent columns.
        dependent: Vec<usize>,
    },
    /// Two projections must be equal as sets — the paper's constraint 4
    /// ("the matching of operators and machines occurring in Operate must
    /// be the same as that in Jobs").
    Agreement {
        /// The left projection.
        left: ColsRef,
        /// The right projection.
        right: ColsRef,
    },
    /// Within a tuple, a non-null `if_nonnull` column forces `then_nonnull`
    /// to be non-null (e.g. "a machine mentioned in Jobs must have its
    /// operator filled in").
    Implies {
        /// The relation.
        relation: Symbol,
        /// Guard column.
        if_nonnull: usize,
        /// Required column.
        then_nonnull: usize,
    },
}

impl Constraint {
    /// A one-line description for error messages and reports.
    pub fn describe(&self) -> String {
        match self {
            Constraint::Subset { from, to } => format!("subset {from} ⊆ {to}"),
            Constraint::NotNull { relation, column } => {
                format!("not-null {relation}[{column}]")
            }
            Constraint::Unique { relation, columns } => {
                format!("unique {relation}[{columns:?}]")
            }
            Constraint::Functional {
                relation,
                determinant,
                dependent,
            } => {
                format!("fd {relation}[{determinant:?}] -> [{dependent:?}]")
            }
            Constraint::Agreement { left, right } => format!("agreement {left} = {right}"),
            Constraint::Implies {
                relation,
                if_nonnull,
                then_nonnull,
            } => {
                format!("implies {relation}[{if_nonnull}] nonnull => [{then_nonnull}] nonnull")
            }
        }
    }

    /// Checks that every referenced relation/column exists.
    pub fn validate(&self, schema: &RelationalSchema) -> Result<(), String> {
        let check_col = |relation: &Symbol, column: usize| -> Result<(), String> {
            ColsRef::new(relation.clone(), [column]).validate(schema)
        };
        match self {
            Constraint::Subset { from, to } => {
                from.validate(schema)?;
                to.validate(schema)?;
                if from.columns.len() != to.columns.len() {
                    return Err("subset sides have different widths".into());
                }
                Ok(())
            }
            Constraint::NotNull { relation, column } => check_col(relation, *column),
            Constraint::Unique { relation, columns } => {
                ColsRef::new(relation.clone(), columns.iter().copied()).validate(schema)
            }
            Constraint::Functional {
                relation,
                determinant,
                dependent,
            } => {
                ColsRef::new(relation.clone(), determinant.iter().copied()).validate(schema)?;
                ColsRef::new(relation.clone(), dependent.iter().copied()).validate(schema)
            }
            Constraint::Agreement { left, right } => {
                left.validate(schema)?;
                right.validate(schema)?;
                if left.columns.len() != right.columns.len() {
                    return Err("agreement sides have different widths".into());
                }
                Ok(())
            }
            Constraint::Implies {
                relation,
                if_nonnull,
                then_nonnull,
            } => {
                check_col(relation, *if_nonnull)?;
                check_col(relation, *then_nonnull)
            }
        }
    }

    /// Checks the constraint against a state.
    pub fn check(&self, state: &RelationState) -> Result<(), ConstraintViolation> {
        let fail = |witness: Witness| {
            Err(ConstraintViolation(Box::new(Violation {
                constraint: self.clone(),
                witness,
            })))
        };
        match self {
            Constraint::Subset { from, to } => {
                let sup: std::collections::BTreeSet<_> = to.project(state).into_iter().collect();
                for row in from.project(state) {
                    if !sup.contains(&row) {
                        return fail(Witness::Row(row));
                    }
                }
                Ok(())
            }
            Constraint::NotNull { relation, column } => {
                for t in state.tuples(relation.as_str()) {
                    if t.get(*column).is_some_and(|v| v.is_null()) {
                        return fail(Witness::Row(t.clone()));
                    }
                }
                Ok(())
            }
            Constraint::Unique { relation, columns } => {
                let mut seen = std::collections::BTreeMap::new();
                for t in state.tuples(relation.as_str()) {
                    let Some(key) = t.project(columns) else {
                        continue;
                    };
                    if key.has_null() {
                        continue;
                    }
                    if let Some(prev) = seen.insert(key.clone(), t) {
                        return fail(Witness::Pair {
                            first: prev.clone(),
                            second: t.clone(),
                            shared: key,
                        });
                    }
                }
                Ok(())
            }
            Constraint::Functional {
                relation,
                determinant,
                dependent,
            } => {
                let mut seen: std::collections::BTreeMap<Tuple, (Tuple, &Tuple)> =
                    std::collections::BTreeMap::new();
                for t in state.tuples(relation.as_str()) {
                    let Some(det) = t.project(determinant) else {
                        continue;
                    };
                    if det.has_null() {
                        continue;
                    }
                    let Some(dep) = t.project(dependent) else {
                        continue;
                    };
                    if let Some((prev_dep, prev_t)) = seen.get(&det) {
                        if *prev_dep != dep {
                            return fail(Witness::Pair {
                                first: (*prev_t).clone(),
                                second: t.clone(),
                                shared: det,
                            });
                        }
                    } else {
                        seen.insert(det, (dep, t));
                    }
                }
                Ok(())
            }
            Constraint::Agreement { left, right } => {
                let l = left.project(state);
                let r = right.project(state);
                if l != r {
                    return fail(Witness::Sizes {
                        left: l.len(),
                        right: r.len(),
                    });
                }
                Ok(())
            }
            Constraint::Implies {
                relation,
                if_nonnull,
                then_nonnull,
            } => {
                for t in state.tuples(relation.as_str()) {
                    let guard = t.get(*if_nonnull).is_some_and(|v| !v.is_null());
                    let needed = t.get(*then_nonnull).is_some_and(|v| !v.is_null());
                    if guard && !needed {
                        return fail(Witness::Row(t.clone()));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Checks all of a schema's constraints, returning the first violation.
pub fn check_all(
    schema: &RelationalSchema,
    state: &RelationState,
) -> Result<(), ConstraintViolation> {
    for c in schema.constraints() {
        c.check(state)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_value::tuple;

    #[test]
    fn figure3_satisfies_all_paper_constraints() {
        let schema = fixtures::machine_shop_schema();
        let state = fixtures::figure3_state();
        check_all(&schema, &state).unwrap();
    }

    #[test]
    fn subset_violation_detected() {
        let schema = fixtures::machine_shop_schema();
        let mut state = fixtures::figure3_state();
        // Remove T.Manhart from Employees; Operate still mentions them.
        state
            .delete_raw("Employees", &tuple!["T.Manhart", 32])
            .unwrap();
        let c = Constraint::Subset {
            from: ColsRef::new("Operate", [0]),
            to: ColsRef::new("Employees", [0]),
        };
        let err = c.check(&state).unwrap_err();
        assert!(err.detail().contains("T.Manhart"));
        assert!(check_all(&schema, &state).is_err());
    }

    #[test]
    fn notnull_violation_detected() {
        // Jobs column 0 is nullable at the schema level; a NotNull
        // constraint over it is violated by Figure 3's second Jobs row.
        let state = fixtures::figure3_state();
        let c = Constraint::NotNull {
            relation: "Jobs".into(),
            column: 0,
        };
        let err = c.check(&state).unwrap_err();
        assert!(err.detail().contains("null"));
        // And satisfied where no null occurs.
        let c_ok = Constraint::NotNull {
            relation: "Operate".into(),
            column: 0,
        };
        c_ok.check(&state).unwrap();
    }

    #[test]
    fn unique_violation_detected() {
        let mut state = fixtures::figure3_state();
        // NZ745 operated by a second employee.
        state
            .insert_raw("Operate", tuple!["C.Gershag", "NZ745", "lathe"])
            .unwrap();
        let c = Constraint::Unique {
            relation: "Operate".into(),
            columns: vec![1],
        };
        let err = c.check(&state).unwrap_err();
        assert!(err.detail().contains("NZ745"));
    }

    #[test]
    fn functional_violation_detected() {
        let mut state = fixtures::figure3_state();
        // Same machine, contradictory type.
        state
            .insert_raw("Operate", tuple!["T.Manhart", "NZ745", "press"])
            .unwrap();
        let c = Constraint::Functional {
            relation: "Operate".into(),
            determinant: vec![1],
            dependent: vec![2],
        };
        assert!(c.check(&state).is_err());
    }

    #[test]
    fn functional_skips_null_determinants() {
        let mut state = fixtures::figure3_state();
        state
            .insert_raw(
                "Jobs",
                tuple!["G.Wayshum", "G.Wayshum", dme_value::Value::Null],
            )
            .unwrap();
        let c = Constraint::Functional {
            relation: "Jobs".into(),
            determinant: vec![2],
            dependent: vec![1],
        };
        c.check(&state).unwrap();
    }

    #[test]
    fn agreement_violation_detected() {
        let mut state = fixtures::figure3_state();
        // Jobs gains an operate pair Operate doesn't have.
        state
            .insert_raw("Jobs", tuple![dme_value::Value::Null, "G.Wayshum", "NZ745"])
            .unwrap();
        let c = Constraint::Agreement {
            left: ColsRef::new("Operate", [0, 1]),
            right: ColsRef::new("Jobs", [1, 2]),
        };
        assert!(c.check(&state).is_err());
    }

    #[test]
    fn implies_violation_detected() {
        let mut state = fixtures::figure3_state();
        state
            .insert_raw(
                "Jobs",
                tuple![dme_value::Value::Null, dme_value::Value::Null, "NZ745"],
            )
            .unwrap_err(); // participant coherence already rejects this
                           // Build a standalone check on a crafted relation instead.
        let c = Constraint::Implies {
            relation: "Jobs".into(),
            if_nonnull: 2,
            then_nonnull: 1,
        };
        c.check(&state).unwrap();
    }

    #[test]
    fn validate_rejects_bad_references() {
        let schema = fixtures::machine_shop_schema();
        assert!(Constraint::NotNull {
            relation: "Nope".into(),
            column: 0
        }
        .validate(&schema)
        .is_err());
        assert!(Constraint::NotNull {
            relation: "Operate".into(),
            column: 99
        }
        .validate(&schema)
        .is_err());
        assert!(Constraint::Subset {
            from: ColsRef::new("Operate", [0, 1]),
            to: ColsRef::new("Employees", [0]),
        }
        .validate(&schema)
        .is_err());
        assert!(Constraint::Agreement {
            left: ColsRef::new("Operate", [0]),
            right: ColsRef::new("Jobs", [1, 2]),
        }
        .validate(&schema)
        .is_err());
    }

    #[test]
    fn violation_display() {
        let state = fixtures::figure3_state();
        let c = Constraint::NotNull {
            relation: "Jobs".into(),
            column: 0,
        };
        let v = c.check(&state).unwrap_err();
        assert_eq!(v.description(), "not-null Jobs[0]");
        assert_eq!(
            v.to_string(),
            format!("constraint violated: not-null Jobs[0] — {}", v.detail())
        );
        assert!(v.detail().starts_with("tuple (----"));
    }
}
