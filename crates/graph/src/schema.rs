//! The semantic graph schema (the paper's Figure 5).
//!
//! A [`GraphSchema`] refines a [`Universe`] with **participation rules**:
//! for each (predicate, role) pair, whether participation is *total* for
//! the role's entity type (solid edge: "every machine must be part of an
//! operation association") or *optional* (dotted edge: "not every
//! employee need be in an operation association"), and whether it is
//! *functional* (arrowhead: "a machine may belong to only one operation
//! association").
//!
//! Entity identity comes from the universe (each entity type's
//! identifying characteristic — the Figure 5 arrowhead "employees are
//! uniquely identified by their name"); association identity is the full
//! role assignment (two associations of the same type with identical
//! participants are the same association), with functional roles
//! restricting this further.

use std::collections::BTreeMap;
use std::fmt;

use dme_logic::Universe;
use dme_value::Symbol;

/// Participation of an entity type in one (predicate, role).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Participation {
    /// Solid edge: every entity of the role's type must fill this role in
    /// at least one association.
    pub total: bool,
    /// Arrowhead: an entity may fill this role in at most one
    /// association.
    pub functional: bool,
}

impl Participation {
    /// Optional, non-functional (the default dotted edge).
    pub const OPTIONAL: Participation = Participation {
        total: false,
        functional: false,
    };

    /// Total and functional (the machine/operation edge of Figure 5).
    pub const TOTAL_FUNCTIONAL: Participation = Participation {
        total: true,
        functional: true,
    };
}

/// Errors found while validating a graph schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSchemaError {
    /// A participation references an undeclared predicate or role.
    UnknownRole {
        /// The undeclared predicate.
        predicate: Symbol,
        /// The undeclared role.
        role: Symbol,
    },
    /// A declared predicate role has no participation rule.
    MissingParticipation {
        /// The predicate missing a rule.
        predicate: Symbol,
        /// The role missing a rule.
        role: Symbol,
    },
    /// An entity type or predicate is too wide for the durable delta
    /// record, which stores a name's byte length and a tuple's arity in
    /// 16 bits: a name longer than `u16::MAX` bytes, or more than
    /// `u16::MAX` characteristics or roles.
    TooWide {
        /// The entity type or predicate.
        name: Symbol,
        /// What overflowed: `"name bytes"`, `"characteristics"` or
        /// `"roles"`.
        what: &'static str,
        /// How many there are.
        len: usize,
    },
}

impl fmt::Display for GraphSchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSchemaError::UnknownRole { predicate, role } => {
                write!(f, "participation for unknown role `{predicate}:{role}`")
            }
            GraphSchemaError::MissingParticipation { predicate, role } => {
                write!(f, "no participation rule for role `{predicate}:{role}`")
            }
            GraphSchemaError::TooWide { name, what, len } => {
                let head: String = name.as_str().chars().take(32).collect();
                let cut = if head.len() < name.as_str().len() {
                    "…"
                } else {
                    ""
                };
                write!(
                    f,
                    "`{head}{cut}` has {len} {what}; durable records hold at most {}",
                    u16::MAX
                )
            }
        }
    }
}

impl std::error::Error for GraphSchemaError {}

/// Refuses a name longer than `u16::MAX` bytes, or more than
/// `u16::MAX` characteristics or roles: the widths the durable delta
/// record can carry.
fn check_width(name: &Symbol, parts: usize, what: &'static str) -> Result<(), GraphSchemaError> {
    for (len, what) in [(name.as_str().len(), "name bytes"), (parts, what)] {
        if len > usize::from(u16::MAX) {
            return Err(GraphSchemaError::TooWide {
                name: name.clone(),
                what,
                len,
            });
        }
    }
    Ok(())
}

/// The schema of a semantic-graph application model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSchema {
    universe: Universe,
    participations: BTreeMap<(Symbol, Symbol), Participation>,
}

impl GraphSchema {
    /// Builds and validates a graph schema. Every (predicate, role) of
    /// the universe must receive exactly one participation rule, and
    /// every entity type and predicate must fit the durable delta record
    /// ([`GraphSchemaError::TooWide`]).
    pub fn new(
        universe: Universe,
        participations: impl IntoIterator<Item = ((Symbol, Symbol), Participation)>,
    ) -> Result<Self, GraphSchemaError> {
        for et in universe.entity_types() {
            check_width(et.name(), et.characteristics().count(), "characteristics")?;
        }
        for pred in universe.predicates() {
            check_width(pred.name(), pred.arity(), "roles")?;
        }
        let participations: BTreeMap<_, _> = participations.into_iter().collect();
        for (predicate, role) in participations.keys() {
            let known = universe
                .predicate(predicate.as_str())
                .and_then(|p| p.case_type(role.as_str()))
                .is_some();
            if !known {
                return Err(GraphSchemaError::UnknownRole {
                    predicate: predicate.clone(),
                    role: role.clone(),
                });
            }
        }
        for pred in universe.predicates() {
            for (role, _) in pred.cases() {
                if !participations.contains_key(&(pred.name().clone(), role.clone())) {
                    return Err(GraphSchemaError::MissingParticipation {
                        predicate: pred.name().clone(),
                        role: role.clone(),
                    });
                }
            }
        }
        Ok(GraphSchema {
            universe,
            participations,
        })
    }

    /// The shared universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The participation rule for a (predicate, role).
    pub fn participation(&self, predicate: &str, role: &str) -> Option<Participation> {
        self.participations
            .get(&(Symbol::new(predicate), Symbol::new(role)))
            .copied()
    }

    /// All participation rules, keyed by (predicate, role).
    pub fn participations(&self) -> impl Iterator<Item = (&(Symbol, Symbol), &Participation)> {
        self.participations.iter()
    }

    /// The full fact vocabulary of this schema: every entity type with
    /// all its characteristics and every predicate of the universe. Used
    /// by view-integration audits — an external view's vocabulary must be
    /// covered by this one, and the union of all views' vocabularies
    /// shows which conceptual information is visible to no user at all.
    pub fn vocabulary(&self) -> dme_logic::vocab::FactFilter {
        let mut filter = dme_logic::vocab::FactFilter::new();
        for et in self.universe.entity_types() {
            filter.entity_types.insert(et.name().clone());
            for (c, _) in et.non_id_characteristics() {
                filter
                    .characteristics
                    .insert((et.name().clone(), c.clone()));
            }
        }
        for pred in self.universe.predicates() {
            filter.predicates.insert(pred.name().clone());
        }
        filter
    }

    /// The roles an entity type must fill (total participations), as
    /// (predicate, role) pairs.
    pub fn required_roles(&self, entity_type: &str) -> Vec<(Symbol, Symbol)> {
        self.participations
            .iter()
            .filter(|((pred, role), p)| {
                p.total
                    && self
                        .universe
                        .predicate(pred.as_str())
                        .and_then(|d| d.case_type(role.as_str()))
                        .is_some_and(|t| t.as_str() == entity_type)
            })
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dme_logic::{EntityTypeDecl, PredicateDecl};
    use dme_value::{sym, Domain, DomainCatalog};

    #[test]
    fn machine_shop_schema_is_valid() {
        let s = fixtures::machine_shop_graph_schema();
        assert_eq!(
            s.participation("operate", "object"),
            Some(Participation::TOTAL_FUNCTIONAL)
        );
        assert_eq!(
            s.participation("operate", "agent"),
            Some(Participation::OPTIONAL)
        );
        assert_eq!(s.participation("operate", "nope"), None);
        assert_eq!(s.participations().count(), 4);
    }

    #[test]
    fn required_roles_finds_machine_totality() {
        let s = fixtures::machine_shop_graph_schema();
        assert_eq!(
            s.required_roles("machine"),
            vec![(sym!("operate"), sym!("object"))]
        );
        assert!(s.required_roles("employee").is_empty());
    }

    #[test]
    fn rejects_unknown_role() {
        let u = Universe::machine_shop();
        let err = GraphSchema::new(
            u,
            [(
                (sym!("operate"), sym!("instrument")),
                Participation::OPTIONAL,
            )],
        )
        .unwrap_err();
        assert!(matches!(err, GraphSchemaError::UnknownRole { .. }));
    }

    #[test]
    fn rejects_missing_participation() {
        let u = Universe::machine_shop();
        let err = GraphSchema::new(
            u,
            [
                ((sym!("operate"), sym!("agent")), Participation::OPTIONAL),
                (
                    (sym!("operate"), sym!("object")),
                    Participation::TOTAL_FUNCTIONAL,
                ),
                ((sym!("supervise"), sym!("agent")), Participation::OPTIONAL),
                // supervise:object missing
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraphSchemaError::MissingParticipation {
                predicate: sym!("supervise"),
                role: sym!("object"),
            }
        );
    }

    /// A one-entity-type universe whose type name is `name_len` bytes
    /// and which has `extra` characteristics beside its identifier.
    fn wide_universe(name_len: usize, extra: usize) -> Universe {
        let ids = Symbol::new("ids");
        let chars = (0..=extra).map(|i| (Symbol::new(format!("c{i}")), ids.clone()));
        Universe::new(
            DomainCatalog::new().with(Domain::of_strs("ids", ["a"])),
            [EntityTypeDecl::new("e".repeat(name_len), "c0", chars)],
            Vec::<PredicateDecl>::new(),
        )
        .unwrap()
    }

    #[test]
    fn refuses_what_the_durable_record_cannot_carry() {
        let err = GraphSchema::new(wide_universe(70_000, 0), []).unwrap_err();
        assert_eq!(
            err,
            GraphSchemaError::TooWide {
                name: Symbol::new("e".repeat(70_000)),
                what: "name bytes",
                len: 70_000,
            }
        );
        assert!(err
            .to_string()
            .starts_with(&format!("`{}…` has 70000", "e".repeat(32))));
        let err = GraphSchema::new(wide_universe(1, 65_535), []).unwrap_err();
        assert!(
            matches!(
                err,
                GraphSchemaError::TooWide {
                    what: "characteristics",
                    len: 65_536,
                    ..
                }
            ),
            "{err}"
        );
        // Exactly at the bound is fine.
        assert!(GraphSchema::new(wide_universe(65_535, 0), []).is_ok());
        assert!(GraphSchema::new(wide_universe(1, 65_534), []).is_ok());
    }

    #[test]
    fn error_display() {
        let e = GraphSchemaError::UnknownRole {
            predicate: sym!("p"),
            role: sym!("r"),
        };
        assert_eq!(e.to_string(), "participation for unknown role `p:r`");
    }
}
