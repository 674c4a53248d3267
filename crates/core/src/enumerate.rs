//! Operation enumeration over finite domains.
//!
//! §2.1: "Given a schema and the set of possible other arguments for each
//! operation type, we can generate an application model's set of
//! allowable operations. For example, given a relational schema, there
//! would be an operation corresponding to the insertion or deletion of
//! each possible set of tuples."
//!
//! Enumerating *every* set of tuples is exponential; the checkers instead
//! take the operations generated here — all single-statement operations
//! plus all statement sets up to a caller-chosen size — and recover the
//! rest through composition (the `M-ops*` of Definition 3).

use std::sync::Arc;

use dme_value::{Tuple, Value};

use dme_graph::{Association, Entity, EntityRef, GraphOp, GraphSchema, SemanticUnit};
use dme_relation::ops::StatementSet;
use dme_relation::{RelOp, RelationSchema, RelationState, RelationalSchema};

/// All well-formed tuples of one relation over its (finite) domains.
/// Panics if a referenced domain is not enumerable.
pub fn enumerate_tuples(schema: &RelationalSchema, rel: &RelationSchema) -> Vec<Tuple> {
    let domains = schema.universe().domains();
    // Per flat column: candidate values.
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(rel.arity());
    for p in rel.participants() {
        for col in &p.columns {
            let domain = domains
                .get(col.domain.as_str())
                .expect("schema validated against universe");
            let mut values: Vec<Value> = domain
                .spec()
                .enumerate()
                .expect("enumerable domain required for operation enumeration")
                .into_iter()
                .map(Value::Atom)
                .collect();
            if col.nullable {
                values.insert(0, Value::Null);
            }
            columns.push(values);
        }
    }
    let mut out = Vec::new();
    let mut current: Vec<Value> = Vec::with_capacity(columns.len());
    fn rec(
        columns: &[Vec<Value>],
        current: &mut Vec<Value>,
        out: &mut Vec<Tuple>,
        schema: &RelationalSchema,
        rel: &RelationSchema,
    ) {
        if current.len() == columns.len() {
            let t = Tuple::new(current.iter().cloned());
            if RelationState::check_tuple(schema, rel, &t).is_ok() {
                out.push(t);
            }
            return;
        }
        for v in &columns[current.len()] {
            current.push(v.clone());
            rec(columns, current, out, schema, rel);
            current.pop();
        }
    }
    rec(&columns, &mut current, &mut out, schema, rel);
    out
}

/// All statements of a schema as `(relation, tuple)` pairs.
pub fn enumerate_statements(schema: &RelationalSchema) -> Vec<(String, Tuple)> {
    let mut out = Vec::new();
    for rel in schema.relations() {
        for t in enumerate_tuples(schema, rel) {
            out.push((rel.name().as_str().to_owned(), t));
        }
    }
    out
}

/// All insert/delete operations whose statement sets have at most
/// `max_statements` statements (statements may span relations).
pub fn enumerate_rel_ops(schema: &RelationalSchema, max_statements: usize) -> Vec<RelOp> {
    let statements = enumerate_statements(schema);
    let mut sets: Vec<StatementSet> = Vec::new();
    // Size-1 sets.
    for (r, t) in &statements {
        sets.push(StatementSet::single(r.as_str(), [t.clone()]));
    }
    // Larger sets (combinations, order-insensitive).
    let mut current = StatementSet::new();
    fn rec(
        statements: &[(String, Tuple)],
        from: usize,
        size: usize,
        target: usize,
        current: &mut StatementSet,
        sets: &mut Vec<StatementSet>,
    ) {
        if size == target {
            sets.push(current.clone());
            return;
        }
        for i in from..statements.len() {
            let (r, t) = &statements[i];
            let mut next = current.clone();
            next.add(r.as_str(), t.clone());
            if next.len() == size + 1 {
                std::mem::swap(current, &mut next);
                rec(statements, i + 1, size + 1, target, current, sets);
                std::mem::swap(current, &mut next);
            }
        }
    }
    for target in 2..=max_statements {
        rec(&statements, 0, 0, target, &mut current, &mut sets);
    }
    sets.iter()
        .flat_map(|s| [RelOp::Insert(s.clone()), RelOp::Delete(s.clone())])
        .collect()
}

/// All entities over the schema's finite domains.
pub fn enumerate_entities(schema: &GraphSchema) -> Vec<Entity> {
    let domains = schema.universe().domains();
    let mut out = Vec::new();
    for et in schema.universe().entity_types() {
        let chars: Vec<_> = et.characteristics().collect();
        let candidates: Vec<Vec<dme_value::Atom>> = chars
            .iter()
            .map(|(_, d)| {
                domains
                    .get(d.as_str())
                    .expect("validated")
                    .spec()
                    .enumerate()
                    .expect("enumerable domain required")
            })
            .collect();
        let mut idx = vec![0usize; chars.len()];
        'outer: loop {
            out.push(Entity::new(
                et.name().clone(),
                chars
                    .iter()
                    .enumerate()
                    .map(|(pos, (c, _))| ((*c).clone(), candidates[pos][idx[pos]].clone())),
            ));
            // Increment mixed-radix counter.
            for pos in 0..idx.len() {
                idx[pos] += 1;
                if idx[pos] < candidates[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
            }
            break;
        }
    }
    out
}

/// All associations over the schema's finite domains.
pub fn enumerate_associations(schema: &GraphSchema) -> Vec<Association> {
    let domains = schema.universe().domains();
    let mut out = Vec::new();
    for pred in schema.universe().predicates() {
        let cases: Vec<_> = pred.cases().collect();
        let candidates: Vec<Vec<EntityRef>> = cases
            .iter()
            .map(|(_, et_name)| {
                let et = schema
                    .universe()
                    .entity_type(et_name.as_str())
                    .expect("validated");
                let d = et
                    .domain_of(et.id_characteristic().as_str())
                    .expect("validated");
                domains
                    .get(d.as_str())
                    .expect("validated")
                    .spec()
                    .enumerate()
                    .expect("enumerable domain required")
                    .into_iter()
                    .map(|a| EntityRef::new((*et_name).clone(), a))
                    .collect()
            })
            .collect();
        let mut idx = vec![0usize; cases.len()];
        'outer: loop {
            out.push(Association::new(
                pred.name().clone(),
                cases
                    .iter()
                    .zip(&idx)
                    .enumerate()
                    .map(|(pos, ((role, _), &i))| ((*role).clone(), candidates[pos][i].clone())),
            ));
            for pos in 0..idx.len() {
                idx[pos] += 1;
                if idx[pos] < candidates[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
            }
            break;
        }
    }
    out
}

/// Semantic units pairing each entity that has required (total) roles
/// with each combination of associations filling them.
pub fn enumerate_units(schema: &GraphSchema) -> Vec<SemanticUnit> {
    let entities = enumerate_entities(schema);
    let associations = enumerate_associations(schema);
    let mut out = Vec::new();
    for e in &entities {
        let required = schema.required_roles(e.entity_type.as_str());
        if required.is_empty() {
            continue;
        }
        let Some(r) = e.to_ref(schema) else { continue };
        // For each required (predicate, role), candidate associations where
        // this entity fills that role.
        let per_role: Vec<Vec<&Association>> = required
            .iter()
            .map(|(p, role)| {
                associations
                    .iter()
                    .filter(|a| a.predicate == *p && a.role(role.as_str()).is_some_and(|x| *x == r))
                    .collect()
            })
            .collect();
        if per_role.iter().any(Vec::is_empty) {
            continue;
        }
        // One association per required role (cartesian product).
        let mut idx = vec![0usize; per_role.len()];
        'outer: loop {
            let mut unit = SemanticUnit::new().with_entity(e.clone());
            for (pos, &i) in idx.iter().enumerate() {
                unit = unit.with_association(per_role[pos][i].clone());
            }
            out.push(unit);
            for pos in 0..idx.len() {
                idx[pos] += 1;
                if idx[pos] < per_role[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
            }
            break;
        }
    }
    out
}

/// All graph operations over the schema's finite domains: entity and
/// association inserts/deletes plus semantic-unit inserts/deletes.
pub fn enumerate_graph_ops(schema: &Arc<GraphSchema>) -> Vec<GraphOp> {
    let mut out = Vec::new();
    for e in enumerate_entities(schema) {
        if let Some(r) = e.to_ref(schema) {
            out.push(GraphOp::DeleteEntity(r));
        }
        out.push(GraphOp::InsertEntity(e));
    }
    for a in enumerate_associations(schema) {
        out.push(GraphOp::InsertAssociation(a.clone()));
        out.push(GraphOp::DeleteAssociation(a));
    }
    for u in enumerate_units(schema) {
        out.push(GraphOp::InsertUnit(u.clone()));
        out.push(GraphOp::DeleteUnit(u));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness;

    #[test]
    fn tuple_enumeration_respects_wellformedness() {
        let schema = witness::mini_relational_schema();
        let jobs = schema.relation("Jobs").unwrap();
        let tuples = enumerate_tuples(&schema, jobs);
        // No vacuous or incoherent tuples.
        for t in &tuples {
            RelationState::check_tuple(&schema, jobs, t).unwrap();
        }
        assert!(!tuples.is_empty());
    }

    #[test]
    fn statement_count_is_stable() {
        let schema = witness::mini_relational_schema();
        let statements = enumerate_statements(&schema);
        // Employees: 2 names × 1 age = 2.
        // Operate: 2 × 1 machine × 1 type = 2.
        // Jobs: (2+null) supervisor × 2 supervisee × (1+null) machine,
        //       minus vacuous (null, x, null) = 3·2·2 − 2 = 10.
        assert_eq!(statements.len(), 2 + 2 + 10);
    }

    #[test]
    fn rel_op_enumeration_counts() {
        let schema = witness::mini_relational_schema();
        let ops1 = enumerate_rel_ops(&schema, 1);
        assert_eq!(ops1.len(), 14 * 2);
        let ops2 = enumerate_rel_ops(&schema, 2);
        // 14 singles + C(14,2)=91 pairs, ×2 for insert/delete.
        assert_eq!(ops2.len(), (14 + 91) * 2);
    }

    #[test]
    fn entity_and_association_enumeration() {
        let schema = witness::mini_graph_schema();
        let entities = enumerate_entities(&schema);
        // 2 employees (2 names × 1 age) + 1 machine.
        assert_eq!(entities.len(), 3);
        let assocs = enumerate_associations(&schema);
        // operate: 2 agents × 1 machine; supervise: 2 × 2.
        assert_eq!(assocs.len(), 2 + 4);
    }

    #[test]
    fn unit_enumeration_pairs_machines_with_operations() {
        let schema = witness::mini_graph_schema();
        let units = enumerate_units(&schema);
        // One machine, two possible operators.
        assert_eq!(units.len(), 2);
        for u in &units {
            assert_eq!(u.entities.len(), 1);
            assert_eq!(u.associations.len(), 1);
            assert_eq!(u.entities[0].entity_type, "machine");
        }
    }

    #[test]
    fn graph_op_enumeration_counts() {
        let schema = Arc::new(witness::mini_graph_schema());
        let ops = enumerate_graph_ops(&schema);
        // entities 3×2 + associations 6×2 + units 2×2 = 22.
        assert_eq!(ops.len(), 22);
    }
}
