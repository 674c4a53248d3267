//! Compilation of relational statements into logic facts (§3.2.3).
//!
//! Each tuple of a relation is one natural-language statement; this module
//! translates it into the set of ground facts it asserts, using the
//! canonical vocabulary of `dme-logic`:
//!
//! * a participant whose pairs include `be <type>:object` asserts an
//!   **existence** fact for its (non-null) identifying value;
//! * every non-null, non-identifying characteristic column asserts a
//!   **characteristic** fact;
//! * for every predicate mentioned by the heading, if *all* of its cases
//!   are filled by participants with non-null identifying values, the
//!   tuple asserts one **association** fact; if any case participant is
//!   null, the statement simply does not speak about that predicate
//!   (Figure 3's `(----, T.Manhart, NZ745)` asserts only the `operate`
//!   fact, not a `supervise` fact).
//!
//! A tuple that asserts *no* facts is **vacuous** and rejected by state
//! well-formedness: this is why Figure 3's Jobs relation has no
//! `(----, G.Wayshum, ----)` row, while Figure 9's single relation *does*
//! contain `(----, G.Wayshum, 50, ----, ----)` — there the second
//! participant carries `be employee:object`, so the row asserts
//! existence and age facts.

use dme_logic::{vocab, Fact, FactBase, ToFacts};
use dme_value::{Atom, Tuple};

use crate::schema::RelationSchema;
use crate::state::RelationState;

/// The facts asserted by one tuple under the given heading.
///
/// The tuple must be well-formed for the heading (arity checked by
/// callers; a wrong arity yields an empty fact set).
pub fn tuple_facts(rel: &RelationSchema, tuple: &Tuple) -> FactBase {
    let mut out = FactBase::new();
    if tuple.arity() != rel.arity() {
        return out;
    }

    // Identifying atom per participant (None when null / absent).
    let keys: Vec<Option<&Atom>> = (0..rel.participants().len())
        .map(|pi| tuple[rel.id_column(pi)].as_atom())
        .collect();

    // Fact shapes are exactly the `vocab` constructors'; the predicate
    // symbols come from the heading's compiled cache instead of being
    // re-interned per call (this is the closure enumerator's innermost
    // loop).
    for (pi, p) in rel.participants().iter().enumerate() {
        let Some(key) = keys[pi] else { continue };
        // We need the identifying characteristic name; by validation it is
        // the participant's first column.
        let id_char = &p.columns[0].characteristic;
        if p.asserts_existence() {
            out.insert(Fact::new(
                rel.existence_predicate_of(pi).clone(),
                [(id_char.clone(), key.clone())],
            ));
        }
        let base = rel.participant_offset(pi);
        for (ci, _col) in p.columns.iter().enumerate().skip(1) {
            if let Some(v) = tuple[base + ci].as_atom() {
                out.insert(Fact::new(
                    rel.characteristic_predicate_of(pi, ci).clone(),
                    [
                        (id_char.clone(), key.clone()),
                        (rel.value_case().clone(), v.clone()),
                    ],
                ));
            }
        }
    }

    for pred in rel.mentioned() {
        let bindings = rel
            .bindings_of(pred.as_str())
            .expect("mentioned predicates are bound");
        let mut cases = Vec::with_capacity(bindings.len());
        let mut complete = true;
        for (case, pi) in bindings {
            match keys[*pi] {
                Some(key) => cases.push((case.clone(), key.clone())),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            out.insert(vocab::association(pred, cases));
        }
    }

    out
}

/// The facts asserted by an entire state: the union over all relations
/// and tuples. This realises the paper's reading of a relation as "the
/// set of all true statements fitting a certain form".
pub fn state_facts(state: &RelationState) -> FactBase {
    // The state maintains its fact index incrementally (see
    // [`RelationState`]); its key set is exactly this union, so read it
    // instead of recompiling every tuple.
    FactBase::from_facts(state.fact_counts().map(|(f, _)| f.clone()))
}

impl ToFacts for RelationState {
    fn to_facts(&self) -> FactBase {
        state_facts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_logic::Fact;
    use dme_value::{tuple, Value};

    #[test]
    fn figure3_jobs_row1_asserts_two_association_facts() {
        let schema = fixtures::machine_shop_schema();
        let jobs = schema.relation("Jobs").unwrap();
        let facts = tuple_facts(jobs, &tuple!["G.Wayshum", "C.Gershag", "JCL181"]);
        assert!(facts.holds(&Fact::new(
            "supervise",
            [
                ("agent", Atom::str("G.Wayshum")),
                ("object", Atom::str("C.Gershag"))
            ],
        )));
        assert!(facts.holds(&Fact::new(
            "operate",
            [
                ("agent", Atom::str("C.Gershag")),
                ("object", Atom::str("JCL181"))
            ],
        )));
        assert_eq!(facts.len(), 2);
    }

    #[test]
    fn null_supervisor_suppresses_supervise_fact() {
        let schema = fixtures::machine_shop_schema();
        let jobs = schema.relation("Jobs").unwrap();
        let facts = tuple_facts(jobs, &tuple![Value::Null, "T.Manhart", "NZ745"]);
        assert_eq!(facts.len(), 1);
        assert!(facts.holds(&Fact::new(
            "operate",
            [
                ("agent", Atom::str("T.Manhart")),
                ("object", Atom::str("NZ745"))
            ],
        )));
    }

    #[test]
    fn employees_row_asserts_existence_and_age() {
        let schema = fixtures::machine_shop_schema();
        let employees = schema.relation("Employees").unwrap();
        let facts = tuple_facts(employees, &tuple!["T.Manhart", 32]);
        assert_eq!(facts.len(), 2);
        assert!(facts.holds(&Fact::new(
            "be employee",
            [("name", Atom::str("T.Manhart"))]
        )));
        assert!(facts.holds(&Fact::new(
            "employee.age",
            [("name", Atom::str("T.Manhart")), ("value", Atom::int(32))],
        )));
    }

    #[test]
    fn operate_row_asserts_machine_existence_type_and_operate() {
        let schema = fixtures::machine_shop_schema();
        let operate = schema.relation("Operate").unwrap();
        let facts = tuple_facts(operate, &tuple!["T.Manhart", "NZ745", "lathe"]);
        assert_eq!(facts.len(), 3);
        assert!(facts.holds(&Fact::new("be machine", [("number", Atom::str("NZ745"))])));
        assert!(facts.holds(&Fact::new(
            "machine.type",
            [
                ("number", Atom::str("NZ745")),
                ("value", Atom::str("lathe"))
            ],
        )));
        assert!(facts.holds(&Fact::new(
            "operate",
            [
                ("agent", Atom::str("T.Manhart")),
                ("object", Atom::str("NZ745"))
            ],
        )));
    }

    #[test]
    fn vacuous_tuple_asserts_nothing() {
        let schema = fixtures::machine_shop_schema();
        let jobs = schema.relation("Jobs").unwrap();
        let facts = tuple_facts(jobs, &tuple![Value::Null, "G.Wayshum", Value::Null]);
        assert!(facts.is_empty());
    }

    #[test]
    fn arity_mismatch_yields_empty() {
        let schema = fixtures::machine_shop_schema();
        let jobs = schema.relation("Jobs").unwrap();
        assert!(tuple_facts(jobs, &tuple!["x"]).is_empty());
    }

    #[test]
    fn figure3_state_full_fact_base() {
        let state = fixtures::figure3_state();
        let facts = state.to_facts();
        // 3 employees × (existence + age) + 2 machines × (existence + type)
        // + 2 operate + 1 supervise = 6 + 4 + 2 + 1 = 13.
        assert_eq!(facts.len(), 13);
    }
}
