//! Semantic graph database states (the paper's Figure 4).
//!
//! A [`GraphState`] holds **entities** (with their characteristic values)
//! and **associations** (with each role bound to an entity). Unlike the
//! relation model — whose state consists of *statements about* the
//! application — the graph state "is meant to consist of objects in 1-1
//! correspondence with the application state" (§3.2.2).
//!
//! Identity: an entity is identified by its type plus the value of its
//! identifying characteristic ([`EntityRef`]); an association by its
//! predicate plus its full role assignment. This mirrors the Figure 5
//! arrowheads ("employees are uniquely identified by their name"; "the
//! identity of both the agent and object roles are necessary to uniquely
//! identify a supervision association").
//!
//! [`GraphState::validate`] separates **shape** errors (dangling role
//! edges, missing characteristics, wrong domains) from **schema
//! constraint** errors (totality, functionality). Operations in
//! [`crate::ops`] apply raw changes and then re-validate, so the error
//! state is reached exactly when the transition would leave the
//! application state inconsistent.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dme_value::{sort_bindings, Atom, Symbol, Value};

use crate::schema::GraphSchema;

/// A reference to an entity: its type and identifying value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityRef {
    /// The entity type.
    pub entity_type: Symbol,
    /// The value of the type's identifying characteristic.
    pub key: Atom,
}

impl EntityRef {
    /// Creates a reference.
    pub fn new(entity_type: impl Into<Symbol>, key: impl Into<Atom>) -> Self {
        EntityRef {
            entity_type: entity_type.into(),
            key: key.into(),
        }
    }
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.entity_type, self.key)
    }
}

/// An entity node: a thing in the application state, with its
/// characteristic values (including the identifying one).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entity {
    /// The entity type.
    pub entity_type: Symbol,
    /// characteristic → value; must cover exactly the type's declared
    /// characteristics.
    pub characteristics: BTreeMap<Symbol, Atom>,
}

impl Entity {
    /// Creates an entity.
    pub fn new<C, A>(
        entity_type: impl Into<Symbol>,
        characteristics: impl IntoIterator<Item = (C, A)>,
    ) -> Self
    where
        C: Into<Symbol>,
        A: Into<Atom>,
    {
        Entity {
            entity_type: entity_type.into(),
            characteristics: characteristics
                .into_iter()
                .map(|(c, a)| (c.into(), a.into()))
                .collect(),
        }
    }

    /// The value of one characteristic.
    pub fn get(&self, characteristic: &str) -> Option<&Atom> {
        self.characteristics.get(characteristic)
    }

    /// The entity's reference, given its schema (to find the identifying
    /// characteristic). Returns `None` when the identifying value is
    /// missing.
    pub fn to_ref(&self, schema: &GraphSchema) -> Option<EntityRef> {
        let decl = schema.universe().entity_type(self.entity_type.as_str())?;
        let key = self.characteristics.get(decl.id_characteristic())?;
        Some(EntityRef {
            entity_type: self.entity_type.clone(),
            key: key.clone(),
        })
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.entity_type)?;
        for (i, (c, v)) in self.characteristics.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// An association's role bindings, role → participant, sorted by role.
///
/// One allocation of exactly its bindings: a `BTreeMap` allocates a node
/// with room for eleven entries, and every state, translated operation
/// and committed-history entry holds one of these per association.
/// Equality, ordering and hashing are those of a `BTreeMap` of the same
/// bindings (the same entry sequence), so fingerprints are unchanged.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Roles(Box<[(Symbol, EntityRef)]>);

/// Iterator over an association's `(role, participant)` bindings.
pub type RolesIter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Symbol, EntityRef)>,
    fn(&'a (Symbol, EntityRef)) -> (&'a Symbol, &'a EntityRef),
>;

impl Roles {
    /// The participant filling `role`, if any.
    pub fn get(&self, role: &str) -> Option<&EntityRef> {
        self.0
            .binary_search_by(|(r, _)| r.as_str().cmp(role))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// The bindings in role order.
    pub fn iter(&self) -> RolesIter<'_> {
        self.0.iter().map(|(r, e)| (r, e))
    }

    /// The roles, in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Symbol> {
        self.0.iter().map(|(r, _)| r)
    }

    /// The participants, in role order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &EntityRef> {
        self.0.iter().map(|(_, e)| e)
    }

    /// The number of bindings.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no role is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<(Symbol, EntityRef)> for Roles {
    /// Collects bindings as a map would: sorted by role, and the last
    /// binding of a role given twice wins.
    fn from_iter<I: IntoIterator<Item = (Symbol, EntityRef)>>(iter: I) -> Self {
        let mut roles: Vec<(Symbol, EntityRef)> = iter.into_iter().collect();
        sort_bindings(&mut roles);
        Roles(roles.into_boxed_slice())
    }
}

impl<'a> IntoIterator for &'a Roles {
    type Item = (&'a Symbol, &'a EntityRef);
    type IntoIter = RolesIter<'a>;

    fn into_iter(self) -> RolesIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Roles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An association node: an event of the application described by a
/// predicate, with each role bound to an entity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Association {
    /// The association type (predicate).
    pub predicate: Symbol,
    /// role → participant.
    pub roles: Roles,
}

impl Association {
    /// Creates an association.
    pub fn new<R>(
        predicate: impl Into<Symbol>,
        roles: impl IntoIterator<Item = (R, EntityRef)>,
    ) -> Self
    where
        R: Into<Symbol>,
    {
        Association {
            predicate: predicate.into(),
            roles: roles.into_iter().map(|(r, e)| (r.into(), e)).collect(),
        }
    }

    /// The participant filling one role.
    pub fn role(&self, role: &str) -> Option<&EntityRef> {
        self.roles.get(role)
    }

    /// Whether the given entity fills any role.
    pub fn involves(&self, entity: &EntityRef) -> bool {
        self.roles.values().any(|e| e == entity)
    }
}

impl fmt::Display for Association {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, (r, e)) in self.roles.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}: {e}")?;
        }
        write!(f, ")")
    }
}

/// Errors raised by graph state validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphStateError {
    /// An entity's type is not declared.
    UnknownEntityType(Symbol),
    /// An entity is missing a declared characteristic or carries an
    /// undeclared one.
    BadCharacteristics(EntityRef),
    /// A characteristic value is outside its domain.
    DomainViolation {
        /// The offending entity.
        entity: EntityRef,
        /// The characteristic with the bad value.
        characteristic: Symbol,
    },
    /// Two entities share a type and identifying value.
    DuplicateEntity(EntityRef),
    /// An association's predicate is not declared.
    UnknownPredicate(Symbol),
    /// An association's roles do not exactly match the predicate's cases.
    BadRoles {
        /// The association's predicate.
        predicate: Symbol,
    },
    /// A role is bound to an entity of the wrong type.
    RoleTypeMismatch {
        /// The association's predicate.
        predicate: Symbol,
        /// The mistyped role.
        role: Symbol,
    },
    /// A role edge points to a non-existent entity.
    DanglingRole {
        /// The association's predicate.
        predicate: Symbol,
        /// The dangling role.
        role: Symbol,
        /// The missing participant.
        entity: EntityRef,
    },
    /// Totality violated: an entity misses a required association.
    TotalityViolation {
        /// The unconnected entity.
        entity: EntityRef,
        /// The required predicate.
        predicate: Symbol,
        /// The required role.
        role: Symbol,
    },
    /// Functionality violated: an entity fills a functional role twice.
    FunctionalityViolation {
        /// The over-connected entity.
        entity: EntityRef,
        /// The functional predicate.
        predicate: Symbol,
        /// The functional role.
        role: Symbol,
    },
    /// The referenced entity does not exist (deletion target).
    NoSuchEntity(EntityRef),
    /// The referenced association does not exist (deletion target).
    NoSuchAssociation(Association),
    /// The entity already exists (insertion target).
    EntityExists(EntityRef),
    /// The association already exists (insertion target).
    AssociationExists(Association),
}

impl fmt::Display for GraphStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphStateError::UnknownEntityType(t) => write!(f, "unknown entity type `{t}`"),
            GraphStateError::BadCharacteristics(e) => {
                write!(f, "entity {e} has wrong characteristic set")
            }
            GraphStateError::DomainViolation {
                entity,
                characteristic,
            } => {
                write!(
                    f,
                    "entity {entity}: characteristic `{characteristic}` outside domain"
                )
            }
            GraphStateError::DuplicateEntity(e) => write!(f, "duplicate entity {e}"),
            GraphStateError::UnknownPredicate(p) => write!(f, "unknown predicate `{p}`"),
            GraphStateError::BadRoles { predicate } => {
                write!(f, "association `{predicate}` has wrong role set")
            }
            GraphStateError::RoleTypeMismatch { predicate, role } => {
                write!(
                    f,
                    "association `{predicate}`: role `{role}` bound to wrong entity type"
                )
            }
            GraphStateError::DanglingRole {
                predicate,
                role,
                entity,
            } => {
                write!(
                    f,
                    "association `{predicate}`: role `{role}` references missing {entity}"
                )
            }
            GraphStateError::TotalityViolation {
                entity,
                predicate,
                role,
            } => {
                write!(f, "{entity} must fill `{predicate}:{role}` but does not")
            }
            GraphStateError::FunctionalityViolation {
                entity,
                predicate,
                role,
            } => {
                write!(
                    f,
                    "{entity} fills functional role `{predicate}:{role}` more than once"
                )
            }
            GraphStateError::NoSuchEntity(e) => write!(f, "no such entity {e}"),
            GraphStateError::NoSuchAssociation(a) => write!(f, "no such association {a}"),
            GraphStateError::EntityExists(e) => write!(f, "entity {e} already exists"),
            GraphStateError::AssociationExists(a) => write!(f, "association {a} already exists"),
        }
    }
}

impl std::error::Error for GraphStateError {}

/// A database state of the semantic graph model.
///
/// Besides the node sets, the state maintains a **role index** — per
/// (predicate, role, entity), the number of associations in which the
/// entity fills that role — so totality and functionality validation is
/// linear instead of quadratic. The index is derived data: equality,
/// ordering and the fact compilation ignore it, and
/// [`GraphState::validate_scan`] re-checks the same constraints without
/// it (the DESIGN.md ablation baseline).
#[derive(Clone)]
pub struct GraphState {
    schema: Arc<GraphSchema>,
    entities: BTreeMap<EntityRef, Entity>,
    associations: BTreeSet<Association>,
    role_index: BTreeMap<(Symbol, Symbol, EntityRef), usize>,
    /// Incrementally-maintained content fingerprint: the XOR of tagged
    /// per-node hashes over `entities` and `associations`. Derived data,
    /// like the role index — equality and ordering ignore it.
    fp: u64,
}

/// Tagged element hash of one entity (the tag keeps entity and
/// association hashes from cancelling each other in the XOR).
fn entity_fp(entity: &Entity) -> u64 {
    dme_logic::content_fingerprint(&(0u8, entity))
}

/// Tagged element hash of one association.
fn assoc_fp(assoc: &Association) -> u64 {
    dme_logic::content_fingerprint(&(1u8, assoc))
}

/// Whether a declaration's names (sorted, as the universe stores them)
/// are exactly the sorted names `actual`, compared pairwise without
/// building either set.
fn same_names<'a>(
    declared: impl ExactSizeIterator<Item = (&'a Symbol, &'a Symbol)>,
    actual: impl ExactSizeIterator<Item = &'a Symbol>,
) -> bool {
    declared.len() == actual.len() && declared.zip(actual).all(|((d, _), a)| d == a)
}

impl PartialEq for GraphState {
    fn eq(&self, other: &Self) -> bool {
        self.entities == other.entities && self.associations == other.associations
    }
}

impl Eq for GraphState {}

impl PartialOrd for GraphState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GraphState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.entities
            .cmp(&other.entities)
            .then_with(|| self.associations.cmp(&other.associations))
    }
}

impl std::hash::Hash for GraphState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `Eq`: the role index is derived data and the
        // schema is shared, so neither participates. The fingerprint is
        // a function of exactly the participating fields, so hashing it
        // keeps `Hash` consistent with `Eq` at O(1).
        state.write_u64(self.fp);
    }
}

impl fmt::Debug for GraphState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GraphState {{")?;
        for e in self.entities.values() {
            writeln!(f, "  {e}")?;
        }
        for a in &self.associations {
            writeln!(f, "  {a}")?;
        }
        write!(f, "}}")
    }
}

impl GraphState {
    /// The empty state.
    pub fn empty(schema: Arc<GraphSchema>) -> Self {
        GraphState {
            schema,
            entities: BTreeMap::new(),
            associations: BTreeSet::new(),
            role_index: BTreeMap::new(),
            fp: 0,
        }
    }

    /// The state's incrementally-maintained 64-bit content fingerprint,
    /// which keeps the law `dme_core::FiniteModel::with_fingerprint`
    /// states for the arena's fingerprint hook.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    fn index_association(&mut self, assoc: &Association, delta: isize) {
        for (role, entity) in &assoc.roles {
            let key = (assoc.predicate.clone(), role.clone(), entity.clone());
            if delta > 0 {
                *self.role_index.entry(key).or_insert(0) += 1;
            } else if let Some(count) = self.role_index.get_mut(&key) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    self.role_index.remove(&key);
                }
            }
        }
    }

    /// The number of associations where `entity` fills `(predicate,
    /// role)` — an O(log n) index lookup.
    pub fn role_count(&self, entity: &EntityRef, predicate: &str, role: &str) -> usize {
        self.role_index
            .get(&(Symbol::new(predicate), Symbol::new(role), entity.clone()))
            .copied()
            .unwrap_or(0)
    }

    /// The application-model schema this state belongs to.
    pub fn schema(&self) -> &Arc<GraphSchema> {
        &self.schema
    }

    /// Looks up an entity.
    pub fn entity(&self, r: &EntityRef) -> Option<&Entity> {
        self.entities.get(r)
    }

    /// All entities in reference order.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.entities.values()
    }

    /// All associations.
    pub fn associations(&self) -> impl Iterator<Item = &Association> {
        self.associations.iter()
    }

    /// Whether the association is present.
    pub fn has_association(&self, a: &Association) -> bool {
        self.associations.contains(a)
    }

    /// Associations involving an entity.
    pub fn associations_of<'a>(
        &'a self,
        entity: &'a EntityRef,
    ) -> impl Iterator<Item = &'a Association> {
        self.associations.iter().filter(move |a| a.involves(entity))
    }

    /// Associations where `entity` fills `(predicate, role)`.
    pub fn associations_filling<'a>(
        &'a self,
        entity: &'a EntityRef,
        predicate: &'a str,
        role: &'a str,
    ) -> impl Iterator<Item = &'a Association> {
        self.associations.iter().filter(move |a| {
            a.predicate.as_str() == predicate && a.role(role).is_some_and(|e| e == entity)
        })
    }

    /// Counts of nodes: (entities, associations).
    pub fn sizes(&self) -> (usize, usize) {
        (self.entities.len(), self.associations.len())
    }

    /// Whether the state has no nodes.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty() && self.associations.is_empty()
    }

    /// Checks one entity's shape (type, characteristic set, domains).
    pub fn check_entity(
        schema: &GraphSchema,
        entity: &Entity,
    ) -> Result<EntityRef, GraphStateError> {
        let decl = schema
            .universe()
            .entity_type(entity.entity_type.as_str())
            .ok_or_else(|| GraphStateError::UnknownEntityType(entity.entity_type.clone()))?;
        let r = entity.to_ref(schema).ok_or_else(|| {
            GraphStateError::BadCharacteristics(EntityRef {
                entity_type: entity.entity_type.clone(),
                key: Atom::str("<missing id>"),
            })
        })?;
        // Both maps are sorted by name, so equal name sets zip pairwise.
        if !same_names(decl.characteristics(), entity.characteristics.keys()) {
            return Err(GraphStateError::BadCharacteristics(r));
        }
        for ((_, domain), (c, v)) in decl.characteristics().zip(&entity.characteristics) {
            if schema
                .universe()
                .domains()
                .check(domain, &Value::Atom(v.clone()))
                .is_err()
            {
                return Err(GraphStateError::DomainViolation {
                    entity: r,
                    characteristic: c.clone(),
                });
            }
        }
        Ok(r)
    }

    /// Checks one association's shape against the universe (roles match
    /// the predicate's cases; role types agree). Does **not** check that
    /// participants exist — that is state-level.
    pub fn check_association(
        schema: &GraphSchema,
        assoc: &Association,
    ) -> Result<(), GraphStateError> {
        let decl = schema
            .universe()
            .predicate(assoc.predicate.as_str())
            .ok_or_else(|| GraphStateError::UnknownPredicate(assoc.predicate.clone()))?;
        if !same_names(decl.cases(), assoc.roles.keys()) {
            return Err(GraphStateError::BadRoles {
                predicate: assoc.predicate.clone(),
            });
        }
        for ((_, expected), (role, entity)) in decl.cases().zip(&assoc.roles) {
            if *expected != entity.entity_type {
                return Err(GraphStateError::RoleTypeMismatch {
                    predicate: assoc.predicate.clone(),
                    role: role.clone(),
                });
            }
        }
        Ok(())
    }

    /// Inserts an entity after shape checks (no schema-constraint check).
    pub fn insert_entity_raw(&mut self, entity: Entity) -> Result<EntityRef, GraphStateError> {
        let r = Self::check_entity(&self.schema, &entity)?;
        if self.entities.contains_key(&r) {
            return Err(GraphStateError::EntityExists(r));
        }
        self.fp ^= entity_fp(&entity);
        self.entities.insert(r.clone(), entity);
        Ok(r)
    }

    /// Removes an entity (no dangling-edge check; validation will catch).
    pub fn remove_entity_raw(&mut self, r: &EntityRef) -> Result<Entity, GraphStateError> {
        let entity = self
            .entities
            .remove(r)
            .ok_or_else(|| GraphStateError::NoSuchEntity(r.clone()))?;
        self.fp ^= entity_fp(&entity);
        Ok(entity)
    }

    /// Inserts an association after shape checks.
    pub fn insert_association_raw(&mut self, assoc: Association) -> Result<(), GraphStateError> {
        Self::check_association(&self.schema, &assoc)?;
        if self.associations.contains(&assoc) {
            return Err(GraphStateError::AssociationExists(assoc));
        }
        self.fp ^= assoc_fp(&assoc);
        self.index_association(&assoc, 1);
        self.associations.insert(assoc);
        Ok(())
    }

    /// Removes an association.
    pub fn remove_association_raw(&mut self, assoc: &Association) -> Result<(), GraphStateError> {
        if !self.associations.remove(assoc) {
            return Err(GraphStateError::NoSuchAssociation(assoc.clone()));
        }
        self.fp ^= assoc_fp(assoc);
        self.index_association(assoc, -1);
        Ok(())
    }

    fn validate_shapes_and_references(&self) -> Result<(), GraphStateError> {
        for entity in self.entities.values() {
            Self::check_entity(&self.schema, entity)?;
        }
        for assoc in &self.associations {
            Self::check_association(&self.schema, assoc)?;
            for (role, entity) in &assoc.roles {
                if !self.entities.contains_key(entity) {
                    return Err(GraphStateError::DanglingRole {
                        predicate: assoc.predicate.clone(),
                        role: role.clone(),
                        entity: entity.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Full validation: shapes, references, totality, functionality —
    /// using the role index for the participation constraints.
    pub fn validate(&self) -> Result<(), GraphStateError> {
        self.validate_shapes_and_references()?;
        for ((predicate, role), p) in self.schema.participations() {
            let entity_type = self
                .schema
                .universe()
                .predicate(predicate.as_str())
                .and_then(|d| d.case_type(role.as_str()))
                .expect("schema validated against universe");
            if p.total {
                for r in self
                    .entities
                    .keys()
                    .filter(|r| r.entity_type == *entity_type)
                {
                    if self.role_count(r, predicate.as_str(), role.as_str()) == 0 {
                        return Err(GraphStateError::TotalityViolation {
                            entity: r.clone(),
                            predicate: predicate.clone(),
                            role: role.clone(),
                        });
                    }
                }
            }
            if p.functional {
                for ((pred, rl, entity), count) in &self.role_index {
                    if pred == predicate && rl == role && *count > 1 {
                        return Err(GraphStateError::FunctionalityViolation {
                            entity: entity.clone(),
                            predicate: predicate.clone(),
                            role: role.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Incremental validation restricted to the entity references an
    /// operation touched.
    ///
    /// Sound whenever the pre-operation state was valid: entity and
    /// association *shapes* are enforced by the raw mutations
    /// themselves, and the remaining whole-state invariants — dangling
    /// roles, totality, functionality — depend only on which entities
    /// are present and on per-entity role counts, both of which an
    /// operation changes exclusively at the refs it touched. A touched
    /// ref that is present is checked for participation constraints; a
    /// touched ref that is absent must fill no role of any predicate
    /// (otherwise some association — pre-existing or just inserted —
    /// dangles on it). Equivalence with [`GraphState::validate`] on
    /// op-derived touched sets is property-tested in `tests/`.
    pub fn validate_touched(&self, touched: &BTreeSet<EntityRef>) -> Result<(), GraphStateError> {
        for r in touched {
            if self.entities.contains_key(r) {
                for ((predicate, role), p) in self.schema.participations() {
                    let entity_type = self
                        .schema
                        .universe()
                        .predicate(predicate.as_str())
                        .and_then(|d| d.case_type(role.as_str()))
                        .expect("schema validated against universe");
                    if *entity_type != r.entity_type {
                        continue;
                    }
                    let count = self.role_count(r, predicate.as_str(), role.as_str());
                    if p.total && count == 0 {
                        return Err(GraphStateError::TotalityViolation {
                            entity: r.clone(),
                            predicate: predicate.clone(),
                            role: role.clone(),
                        });
                    }
                    if p.functional && count > 1 {
                        return Err(GraphStateError::FunctionalityViolation {
                            entity: r.clone(),
                            predicate: predicate.clone(),
                            role: role.clone(),
                        });
                    }
                }
            } else {
                for decl in self.schema.universe().predicates() {
                    for (role, _) in decl.cases() {
                        if self.role_count(r, decl.name().as_str(), role.as_str()) > 0 {
                            return Err(GraphStateError::DanglingRole {
                                predicate: decl.name().clone(),
                                role: role.clone(),
                                entity: r.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The index-free validation baseline: identical semantics to
    /// [`GraphState::validate`], quadratic participation checks. Kept as
    /// the DESIGN.md ablation reference and cross-checked against the
    /// indexed path by the property tests.
    pub fn validate_scan(&self) -> Result<(), GraphStateError> {
        self.validate_shapes_and_references()?;
        for ((predicate, role), p) in self.schema.participations() {
            let entity_type = self
                .schema
                .universe()
                .predicate(predicate.as_str())
                .and_then(|d| d.case_type(role.as_str()))
                .expect("schema validated against universe");
            if p.total {
                for r in self
                    .entities
                    .keys()
                    .filter(|r| r.entity_type == *entity_type)
                {
                    if self
                        .associations_filling(r, predicate.as_str(), role.as_str())
                        .next()
                        .is_none()
                    {
                        return Err(GraphStateError::TotalityViolation {
                            entity: r.clone(),
                            predicate: predicate.clone(),
                            role: role.clone(),
                        });
                    }
                }
            }
            if p.functional {
                let mut seen: BTreeSet<&EntityRef> = BTreeSet::new();
                for a in self
                    .associations
                    .iter()
                    .filter(|a| a.predicate == *predicate)
                {
                    if let Some(e) = a.role(role.as_str()) {
                        if !seen.insert(e) {
                            return Err(GraphStateError::FunctionalityViolation {
                                entity: e.clone(),
                                predicate: predicate.clone(),
                                role: role.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn emp(name: &str) -> EntityRef {
        EntityRef::new("employee", Atom::str(name))
    }

    fn machine(number: &str) -> EntityRef {
        EntityRef::new("machine", Atom::str(number))
    }

    #[test]
    fn figure4_is_valid() {
        let s = fixtures::figure4_state();
        s.validate().unwrap();
        assert_eq!(s.sizes(), (5, 3));
        assert!(!s.is_empty());
    }

    #[test]
    fn figure6_is_valid_and_adds_supervision() {
        let s = fixtures::figure6_state();
        s.validate().unwrap();
        assert_eq!(s.sizes(), (5, 4));
        let sup = Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
        );
        assert!(s.has_association(&sup));
    }

    #[test]
    fn lookup_and_iteration() {
        let s = fixtures::figure4_state();
        let e = s.entity(&emp("T.Manhart")).unwrap();
        assert_eq!(e.get("age"), Some(&Atom::int(32)));
        assert_eq!(e.get("shoe-size"), None);
        assert!(s.entity(&emp("Nobody")).is_none());
        assert_eq!(s.entities().count(), 5);
        assert_eq!(s.associations().count(), 3);
        assert_eq!(s.associations_of(&emp("C.Gershag")).count(), 2);
        assert_eq!(
            s.associations_filling(&emp("C.Gershag"), "operate", "agent")
                .count(),
            1
        );
        assert_eq!(
            s.associations_filling(&emp("C.Gershag"), "operate", "object")
                .count(),
            0
        );
    }

    #[test]
    fn entity_shape_errors() {
        let schema = fixtures::machine_shop_graph_schema();
        // Unknown type.
        assert!(matches!(
            GraphState::check_entity(&schema, &Entity::new("droid", [("name", Atom::str("R2"))])),
            Err(GraphStateError::UnknownEntityType(_))
        ));
        // Missing characteristic.
        assert!(matches!(
            GraphState::check_entity(
                &schema,
                &Entity::new("employee", [("name", Atom::str("T.Manhart"))])
            ),
            Err(GraphStateError::BadCharacteristics(_))
        ));
        // Domain violation.
        assert!(matches!(
            GraphState::check_entity(
                &schema,
                &Entity::new(
                    "employee",
                    [("name", Atom::str("T.Manhart")), ("age", Atom::str("old"))]
                )
            ),
            Err(GraphStateError::DomainViolation { .. })
        ));
    }

    #[test]
    fn association_shape_errors() {
        let schema = fixtures::machine_shop_graph_schema();
        assert!(matches!(
            GraphState::check_association(
                &schema,
                &Association::new("teleport", [("agent", emp("T.Manhart"))])
            ),
            Err(GraphStateError::UnknownPredicate(_))
        ));
        assert!(matches!(
            GraphState::check_association(
                &schema,
                &Association::new("operate", [("agent", emp("T.Manhart"))])
            ),
            Err(GraphStateError::BadRoles { .. })
        ));
        assert!(matches!(
            GraphState::check_association(
                &schema,
                &Association::new(
                    "operate",
                    [("agent", emp("T.Manhart")), ("object", emp("C.Gershag"))]
                )
            ),
            Err(GraphStateError::RoleTypeMismatch { .. })
        ));
    }

    #[test]
    fn dangling_role_detected() {
        let mut s = fixtures::figure4_state();
        s.remove_entity_raw(&emp("G.Wayshum")).unwrap();
        // G.Wayshum still supervises C.Gershag.
        assert!(matches!(
            s.validate(),
            Err(GraphStateError::DanglingRole { .. })
        ));
    }

    #[test]
    fn totality_violation_detected() {
        let mut s = fixtures::figure4_state();
        // Remove NZ745's operation association: the machine violates
        // totality ("every machine must be part of an operation
        // association").
        let op = Association::new(
            "operate",
            [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
        );
        s.remove_association_raw(&op).unwrap();
        assert_eq!(
            s.validate(),
            Err(GraphStateError::TotalityViolation {
                entity: machine("NZ745"),
                predicate: Symbol::new("operate"),
                role: Symbol::new("object"),
            })
        );
    }

    #[test]
    fn functionality_violation_detected() {
        let mut s = fixtures::figure4_state();
        // A second operator for NZ745.
        s.insert_association_raw(Association::new(
            "operate",
            [("agent", emp("C.Gershag")), ("object", machine("NZ745"))],
        ))
        .unwrap();
        assert_eq!(
            s.validate(),
            Err(GraphStateError::FunctionalityViolation {
                entity: machine("NZ745"),
                predicate: Symbol::new("operate"),
                role: Symbol::new("object"),
            })
        );
    }

    #[test]
    fn duplicate_insertions_rejected() {
        let mut s = fixtures::figure4_state();
        assert!(matches!(
            s.insert_entity_raw(Entity::new(
                "employee",
                [("name", Atom::str("T.Manhart")), ("age", Atom::int(32))]
            )),
            Err(GraphStateError::EntityExists(_))
        ));
        let sup = Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("C.Gershag"))],
        );
        assert!(matches!(
            s.insert_association_raw(sup),
            Err(GraphStateError::AssociationExists(_))
        ));
    }

    #[test]
    fn missing_removals_rejected() {
        let mut s = fixtures::figure4_state();
        assert!(matches!(
            s.remove_entity_raw(&emp("Nobody")),
            Err(GraphStateError::NoSuchEntity(_))
        ));
        let ghost = Association::new(
            "supervise",
            [("agent", emp("T.Manhart")), ("object", emp("T.Manhart"))],
        );
        assert!(matches!(
            s.remove_association_raw(&ghost),
            Err(GraphStateError::NoSuchAssociation(_))
        ));
    }

    #[test]
    fn displays() {
        assert_eq!(emp("X").to_string(), "employee[X]");
        let e = Entity::new(
            "employee",
            [("name", Atom::str("X")), ("age", Atom::int(1))],
        );
        assert_eq!(e.to_string(), "employee{age: 1, name: X}");
        let a = Association::new("supervise", [("agent", emp("X")), ("object", emp("Y"))]);
        assert_eq!(
            a.to_string(),
            "supervise(agent: employee[X], object: employee[Y])"
        );
    }
}
