//! The application universe: the shared case grammar.
//!
//! §3.2.3 requires, as a *prerequisite* to defining state equivalence,
//! an "agreement between the semantics of the two data models … a
//! translation between the natural language case grammars on which the two
//! data models are based". A [`Universe`] is that agreement, made
//! explicit: the entity types (with their characteristics and identifying
//! characteristic), the association predicates (with their named cases and
//! the entity type each case accepts), and the value domains.
//!
//! Both a semantic-relation schema and a semantic-graph schema are
//! validated *against the same universe*; the logic-level fact vocabulary
//! (see [`crate::vocab`]) is derived from it. Equivalence between
//! application models over different universes is meaningless — exactly as
//! the paper says natural-language agreement must come first.

use std::collections::BTreeMap;
use std::fmt;

use dme_value::{Domain, DomainCatalog, Symbol};

/// Declaration of an entity type: its characteristics (each with a value
/// domain) and which characteristic identifies entities of this type.
///
/// The paper's Figure 5 arrowheads "state that employees are uniquely
/// identified by their name"; here that is `id_characteristic == "name"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntityTypeDecl {
    name: Symbol,
    id_characteristic: Symbol,
    /// characteristic → domain name; includes the identifying one.
    characteristics: BTreeMap<Symbol, Symbol>,
}

impl EntityTypeDecl {
    /// Creates an entity-type declaration.
    pub fn new(
        name: impl Into<Symbol>,
        id_characteristic: impl Into<Symbol>,
        characteristics: impl IntoIterator<Item = (Symbol, Symbol)>,
    ) -> Self {
        EntityTypeDecl {
            name: name.into(),
            id_characteristic: id_characteristic.into(),
            characteristics: characteristics.into_iter().collect(),
        }
    }

    /// The entity type's name.
    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// The identifying characteristic.
    pub fn id_characteristic(&self) -> &Symbol {
        &self.id_characteristic
    }

    /// Domain of a characteristic, if declared.
    pub fn domain_of(&self, characteristic: &str) -> Option<&Symbol> {
        self.characteristics.get(characteristic)
    }

    /// All characteristics (including the identifying one), with domains.
    pub fn characteristics(&self) -> impl ExactSizeIterator<Item = (&Symbol, &Symbol)> {
        self.characteristics.iter()
    }

    /// Characteristics other than the identifying one.
    pub fn non_id_characteristics(&self) -> impl Iterator<Item = (&Symbol, &Symbol)> {
        self.characteristics
            .iter()
            .filter(|(c, _)| **c != self.id_characteristic)
    }
}

/// Declaration of an association predicate: its cases and the entity type
/// each case accepts (case grammar: "a verb phrase plus several noun
/// phrases — one for each case required by the predicate").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredicateDecl {
    name: Symbol,
    /// case → entity type of the participant filling it.
    cases: BTreeMap<Symbol, Symbol>,
}

impl PredicateDecl {
    /// Creates a predicate declaration.
    pub fn new(name: impl Into<Symbol>, cases: impl IntoIterator<Item = (Symbol, Symbol)>) -> Self {
        PredicateDecl {
            name: name.into(),
            cases: cases.into_iter().collect(),
        }
    }

    /// The predicate's name.
    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// The entity type a case accepts, if the case exists.
    pub fn case_type(&self, case: &str) -> Option<&Symbol> {
        self.cases.get(case)
    }

    /// All cases with their entity types, in case order.
    pub fn cases(&self) -> impl ExactSizeIterator<Item = (&Symbol, &Symbol)> {
        self.cases.iter()
    }

    /// Number of cases.
    pub fn arity(&self) -> usize {
        self.cases.len()
    }
}

/// Errors found while validating a universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniverseError {
    /// An entity type's identifying characteristic is not among its
    /// characteristics.
    MissingIdCharacteristic {
        /// The offending entity type.
        entity_type: Symbol,
        /// Its declared (missing) identifying characteristic.
        id: Symbol,
    },
    /// A characteristic references an undeclared domain.
    UnknownDomain {
        /// The offending entity type.
        entity_type: Symbol,
        /// The characteristic with the bad domain.
        characteristic: Symbol,
        /// The undeclared domain name.
        domain: Symbol,
    },
    /// A predicate case references an undeclared entity type.
    UnknownCaseType {
        /// The offending predicate.
        predicate: Symbol,
        /// The case with the bad participant type.
        case: Symbol,
        /// The undeclared entity type.
        entity_type: Symbol,
    },
    /// A predicate has no cases.
    EmptyPredicate {
        /// The offending predicate.
        predicate: Symbol,
    },
    /// Duplicate entity-type name.
    DuplicateEntityType(Symbol),
    /// Duplicate predicate name.
    DuplicatePredicate(Symbol),
    /// A predicate is named like an existence predicate (`be <type>`),
    /// which is reserved for the canonical vocabulary.
    ReservedPredicateName(Symbol),
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniverseError::MissingIdCharacteristic { entity_type, id } => write!(
                f,
                "entity type `{entity_type}`: identifying characteristic `{id}` is not declared"
            ),
            UniverseError::UnknownDomain { entity_type, characteristic, domain } => write!(
                f,
                "entity type `{entity_type}`: characteristic `{characteristic}` references unknown domain `{domain}`"
            ),
            UniverseError::UnknownCaseType { predicate, case, entity_type } => write!(
                f,
                "predicate `{predicate}`: case `{case}` references unknown entity type `{entity_type}`"
            ),
            UniverseError::EmptyPredicate { predicate } => {
                write!(f, "predicate `{predicate}` has no cases")
            }
            UniverseError::DuplicateEntityType(n) => write!(f, "duplicate entity type `{n}`"),
            UniverseError::DuplicatePredicate(n) => write!(f, "duplicate predicate `{n}`"),
            UniverseError::ReservedPredicateName(n) => {
                write!(f, "predicate name `{n}` is reserved for existence facts")
            }
        }
    }
}

impl std::error::Error for UniverseError {}

/// The shared case-grammar agreement: domains + entity types + predicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Universe {
    domains: DomainCatalog,
    entity_types: BTreeMap<Symbol, EntityTypeDecl>,
    predicates: BTreeMap<Symbol, PredicateDecl>,
}

impl Universe {
    /// Builds and validates a universe.
    pub fn new(
        domains: DomainCatalog,
        entity_types: impl IntoIterator<Item = EntityTypeDecl>,
        predicates: impl IntoIterator<Item = PredicateDecl>,
    ) -> Result<Self, UniverseError> {
        let mut ets = BTreeMap::new();
        for et in entity_types {
            if ets.contains_key(et.name()) {
                return Err(UniverseError::DuplicateEntityType(et.name().clone()));
            }
            ets.insert(et.name().clone(), et);
        }
        let mut preds = BTreeMap::new();
        for p in predicates {
            if preds.contains_key(p.name()) {
                return Err(UniverseError::DuplicatePredicate(p.name().clone()));
            }
            preds.insert(p.name().clone(), p);
        }
        let u = Universe {
            domains,
            entity_types: ets,
            predicates: preds,
        };
        u.validate()?;
        Ok(u)
    }

    fn validate(&self) -> Result<(), UniverseError> {
        for et in self.entity_types.values() {
            if et.domain_of(et.id_characteristic().as_str()).is_none() {
                return Err(UniverseError::MissingIdCharacteristic {
                    entity_type: et.name().clone(),
                    id: et.id_characteristic().clone(),
                });
            }
            for (c, d) in et.characteristics() {
                if self.domains.get(d.as_str()).is_none() {
                    return Err(UniverseError::UnknownDomain {
                        entity_type: et.name().clone(),
                        characteristic: c.clone(),
                        domain: d.clone(),
                    });
                }
            }
        }
        for p in self.predicates.values() {
            if p.arity() == 0 {
                return Err(UniverseError::EmptyPredicate {
                    predicate: p.name().clone(),
                });
            }
            if p.name().as_str().starts_with("be ") {
                return Err(UniverseError::ReservedPredicateName(p.name().clone()));
            }
            for (case, et) in p.cases() {
                if !self.entity_types.contains_key(et) {
                    return Err(UniverseError::UnknownCaseType {
                        predicate: p.name().clone(),
                        case: case.clone(),
                        entity_type: et.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The domain catalog.
    pub fn domains(&self) -> &DomainCatalog {
        &self.domains
    }

    /// Looks up an entity type.
    pub fn entity_type(&self, name: &str) -> Option<&EntityTypeDecl> {
        self.entity_types.get(name)
    }

    /// Looks up a predicate.
    pub fn predicate(&self, name: &str) -> Option<&PredicateDecl> {
        self.predicates.get(name)
    }

    /// All entity types in name order.
    pub fn entity_types(&self) -> impl Iterator<Item = &EntityTypeDecl> {
        self.entity_types.values()
    }

    /// All predicates in name order.
    pub fn predicates(&self) -> impl Iterator<Item = &PredicateDecl> {
        self.predicates.values()
    }

    /// The machine-shop universe of the paper's Figures 3–9: employees
    /// (name, age) and machines (number, type); predicates `operate`
    /// (agent: employee, object: machine) and `supervise` (agent, object:
    /// employee). Domains are enumerated so equivalence checkers can
    /// enumerate states.
    ///
    /// This is the workspace's canonical running example; tests, examples
    /// and benches all build on it.
    pub fn machine_shop() -> Universe {
        let domains = DomainCatalog::new()
            .with(Domain::of_strs(
                "names",
                ["T.Manhart", "C.Gershag", "G.Wayshum"],
            ))
            .with(Domain::of_ints("years", [32, 40, 50]))
            .with(Domain::of_strs("serial-numbers", ["NZ745", "JCL181"]))
            .with(Domain::of_strs("machine-types", ["lathe", "press"]));
        Universe::new(
            domains,
            [
                EntityTypeDecl::new(
                    "employee",
                    "name",
                    [
                        (Symbol::new("name"), Symbol::new("names")),
                        (Symbol::new("age"), Symbol::new("years")),
                    ],
                ),
                EntityTypeDecl::new(
                    "machine",
                    "number",
                    [
                        (Symbol::new("number"), Symbol::new("serial-numbers")),
                        (Symbol::new("type"), Symbol::new("machine-types")),
                    ],
                ),
            ],
            [
                PredicateDecl::new(
                    "operate",
                    [
                        (Symbol::new("agent"), Symbol::new("employee")),
                        (Symbol::new("object"), Symbol::new("machine")),
                    ],
                ),
                PredicateDecl::new(
                    "supervise",
                    [
                        (Symbol::new("agent"), Symbol::new("employee")),
                        (Symbol::new("object"), Symbol::new("employee")),
                    ],
                ),
            ],
        )
        .expect("machine-shop universe is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::sym;

    #[test]
    fn machine_shop_is_valid() {
        let u = Universe::machine_shop();
        assert_eq!(u.entity_types().count(), 2);
        assert_eq!(u.predicates().count(), 2);
        let emp = u.entity_type("employee").unwrap();
        assert_eq!(emp.id_characteristic(), "name");
        assert_eq!(emp.domain_of("age"), Some(&sym!("years")));
        assert_eq!(emp.non_id_characteristics().count(), 1);
        let op = u.predicate("operate").unwrap();
        assert_eq!(op.case_type("agent"), Some(&sym!("employee")));
        assert_eq!(op.arity(), 2);
    }

    #[test]
    fn rejects_missing_id_characteristic() {
        let err = Universe::new(
            DomainCatalog::new().with(Domain::of_strs("d", ["x"])),
            [EntityTypeDecl::new("e", "id", [(sym!("other"), sym!("d"))])],
            [],
        )
        .unwrap_err();
        assert!(matches!(err, UniverseError::MissingIdCharacteristic { .. }));
    }

    #[test]
    fn rejects_unknown_domain() {
        let err = Universe::new(
            DomainCatalog::new(),
            [EntityTypeDecl::new("e", "id", [(sym!("id"), sym!("nope"))])],
            [],
        )
        .unwrap_err();
        assert!(matches!(err, UniverseError::UnknownDomain { .. }));
    }

    #[test]
    fn rejects_unknown_case_type() {
        let err = Universe::new(
            DomainCatalog::new().with(Domain::of_strs("d", ["x"])),
            [EntityTypeDecl::new("e", "id", [(sym!("id"), sym!("d"))])],
            [PredicateDecl::new("p", [(sym!("agent"), sym!("ghost"))])],
        )
        .unwrap_err();
        assert!(matches!(err, UniverseError::UnknownCaseType { .. }));
    }

    #[test]
    fn rejects_empty_predicate() {
        let err = Universe::new(
            DomainCatalog::new().with(Domain::of_strs("d", ["x"])),
            [EntityTypeDecl::new("e", "id", [(sym!("id"), sym!("d"))])],
            [PredicateDecl::new("p", [])],
        )
        .unwrap_err();
        assert!(matches!(err, UniverseError::EmptyPredicate { .. }));
    }

    #[test]
    fn rejects_reserved_predicate_name() {
        let err = Universe::new(
            DomainCatalog::new().with(Domain::of_strs("d", ["x"])),
            [EntityTypeDecl::new("e", "id", [(sym!("id"), sym!("d"))])],
            [PredicateDecl::new("be e", [(sym!("object"), sym!("e"))])],
        )
        .unwrap_err();
        assert_eq!(err, UniverseError::ReservedPredicateName(sym!("be e")));
    }

    #[test]
    fn rejects_duplicates() {
        let d = DomainCatalog::new().with(Domain::of_strs("d", ["x"]));
        let et = EntityTypeDecl::new("e", "id", [(sym!("id"), sym!("d"))]);
        let err = Universe::new(d.clone(), [et.clone(), et.clone()], []).unwrap_err();
        assert_eq!(err, UniverseError::DuplicateEntityType(sym!("e")));

        let p = PredicateDecl::new("p", [(sym!("agent"), sym!("e"))]);
        let err = Universe::new(d, [et], [p.clone(), p]).unwrap_err();
        assert_eq!(err, UniverseError::DuplicatePredicate(sym!("p")));
    }

    #[test]
    fn error_display_is_informative() {
        let e = UniverseError::UnknownCaseType {
            predicate: sym!("operate"),
            case: sym!("agent"),
            entity_type: sym!("droid"),
        };
        assert_eq!(
            e.to_string(),
            "predicate `operate`: case `agent` references unknown entity type `droid`"
        );
    }
}
