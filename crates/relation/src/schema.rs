//! Relation headings and the relational application-model schema.
//!
//! Figure 3's four heading rows map onto this module's types as follows:
//!
//! | paper heading row | here |
//! |---|---|
//! | 1: sets of predicate:case pairs | [`Participant::pairs`] ([`Pair`]) |
//! | 2: case types | [`Participant::entity_type`] |
//! | 3: characteristics | [`CharacteristicCol::characteristic`] |
//! | 4: domains | [`CharacteristicCol::domain`] |
//!
//! A heading is a sequence of **participants** — one per noun phrase of
//! the underlying statement form. Each participant fills a set of
//! predicate:case pairs and is described by one or more characteristic
//! columns, the first of which must be the entity type's *identifying*
//! characteristic (that is how the participant is referenced by
//! association facts).
//!
//! A [`RelationalSchema`] — the declarative half of a semantic-relation
//! application model — is a set of relation headings plus constraints,
//! validated against a shared [`Universe`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dme_logic::Universe;
use dme_value::Symbol;

use crate::constraints::Constraint;

/// One predicate:case pair from the first heading row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pair {
    /// `be <entity-type>:object` — the participant's existence is asserted
    /// by statements of this relation. The entity type is the
    /// participant's own.
    Existence,
    /// `<predicate>:<case>` — the participant fills `case` of `predicate`.
    Case {
        /// The association predicate, e.g. `operate`.
        predicate: Symbol,
        /// The case filled, e.g. `agent`.
        case: Symbol,
    },
}

impl Pair {
    /// Convenience constructor for a case pair.
    pub fn case(predicate: impl Into<Symbol>, case: impl Into<Symbol>) -> Self {
        Pair::Case {
            predicate: predicate.into(),
            case: case.into(),
        }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pair::Existence => write!(f, "be _:object"),
            Pair::Case { predicate, case } => write!(f, "{predicate}:{case}"),
        }
    }
}

/// One characteristic column of a participant (heading rows 3–4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CharacteristicCol {
    /// The characteristic (row 3), e.g. `name`, `age`.
    pub characteristic: Symbol,
    /// The domain (row 4), e.g. `names`, `years`.
    pub domain: Symbol,
    /// Whether the column may hold null.
    pub nullable: bool,
}

impl CharacteristicCol {
    /// A non-nullable characteristic column.
    pub fn required(characteristic: impl Into<Symbol>, domain: impl Into<Symbol>) -> Self {
        CharacteristicCol {
            characteristic: characteristic.into(),
            domain: domain.into(),
            nullable: false,
        }
    }

    /// A nullable characteristic column.
    pub fn optional(characteristic: impl Into<Symbol>, domain: impl Into<Symbol>) -> Self {
        CharacteristicCol {
            characteristic: characteristic.into(),
            domain: domain.into(),
            nullable: true,
        }
    }
}

/// A participant of a relation heading: a noun phrase of the statement
/// form, with the predicate:case pairs it fills and its characteristic
/// columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Participant {
    /// Predicate:case pairs filled by this participant (heading row 1).
    pub pairs: BTreeSet<Pair>,
    /// The participant's case type (heading row 2): an entity type.
    pub entity_type: Symbol,
    /// Characteristic columns; the first must be the entity type's
    /// identifying characteristic.
    pub columns: Vec<CharacteristicCol>,
}

impl Participant {
    /// Creates a participant.
    pub fn new(
        entity_type: impl Into<Symbol>,
        pairs: impl IntoIterator<Item = Pair>,
        columns: impl IntoIterator<Item = CharacteristicCol>,
    ) -> Self {
        Participant {
            pairs: pairs.into_iter().collect(),
            entity_type: entity_type.into(),
            columns: columns.into_iter().collect(),
        }
    }

    /// Whether this participant's existence is asserted here.
    pub fn asserts_existence(&self) -> bool {
        self.pairs.contains(&Pair::Existence)
    }

    /// The case pairs (excluding existence).
    pub fn case_pairs(&self) -> impl Iterator<Item = (&Symbol, &Symbol)> {
        self.pairs.iter().filter_map(|p| match p {
            Pair::Existence => None,
            Pair::Case { predicate, case } => Some((predicate, case)),
        })
    }

    /// Whether this participant fills the given predicate:case pair.
    pub fn fills(&self, predicate: &str, case: &str) -> bool {
        self.case_pairs()
            .any(|(p, c)| p.as_str() == predicate && c.as_str() == case)
    }

    /// Number of characteristic columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Index (within the participant) of the column carrying the given
    /// characteristic.
    pub fn column_of(&self, characteristic: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.characteristic.as_str() == characteristic)
    }
}

/// The most nullable columns one relation may have. `delete-statements`
/// weakens a statement by trying every subset of its nullable columns
/// (see [`crate::ops::remainders`]), so the limit bounds that search at
/// 2¹⁶ candidates per weakened statement.
pub const MAX_NULLABLE_COLUMNS: usize = 16;

/// Errors found while validating relation headings against a universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The relation name is empty or duplicated.
    BadRelationName(Symbol),
    /// A participant's entity type is not declared in the universe.
    UnknownEntityType {
        /// The relation at fault.
        relation: Symbol,
        /// The undeclared entity type.
        entity_type: Symbol,
    },
    /// A participant has no characteristic columns.
    NoColumns {
        /// The relation at fault.
        relation: Symbol,
        /// The empty participant's index.
        participant: usize,
    },
    /// The first characteristic column is not the identifying one.
    FirstColumnNotIdentifying {
        /// The relation at fault.
        relation: Symbol,
        /// The participant's index.
        participant: usize,
        /// The entity type's identifying characteristic.
        expected: Symbol,
        /// The characteristic actually found first.
        found: Symbol,
    },
    /// A characteristic is not declared for the entity type, or its
    /// domain disagrees with the universe.
    BadCharacteristic {
        /// The relation at fault.
        relation: Symbol,
        /// The participant's index.
        participant: usize,
        /// The offending characteristic.
        characteristic: Symbol,
    },
    /// A duplicate characteristic column within one participant.
    DuplicateCharacteristic {
        /// The relation at fault.
        relation: Symbol,
        /// The participant's index.
        participant: usize,
        /// The repeated characteristic.
        characteristic: Symbol,
    },
    /// A case pair references an undeclared predicate or case, or the
    /// case's entity type disagrees with the participant's.
    BadCasePair {
        /// The relation at fault.
        relation: Symbol,
        /// The participant's index.
        participant: usize,
        /// The pair's predicate.
        predicate: Symbol,
        /// The pair's case.
        case: Symbol,
    },
    /// The same predicate:case pair is filled by two participants.
    DuplicateCasePair {
        /// The relation at fault.
        relation: Symbol,
        /// The pair's predicate.
        predicate: Symbol,
        /// The pair's case.
        case: Symbol,
    },
    /// A predicate is mentioned but not all of its cases are covered, so
    /// statements could not be compiled into complete association facts.
    IncompletePredicate {
        /// The relation at fault.
        relation: Symbol,
        /// The incompletely covered predicate.
        predicate: Symbol,
        /// A case no participant fills.
        missing: Symbol,
    },
    /// The relation has more nullable columns than `delete-statements`
    /// can weaken (see [`MAX_NULLABLE_COLUMNS`]).
    TooManyNullableColumns {
        /// The relation at fault.
        relation: Symbol,
        /// Its number of nullable columns.
        nullable: usize,
    },
    /// A constraint references a relation or column that does not exist.
    BadConstraint {
        /// The constraint's description.
        constraint: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::BadRelationName(n) => write!(f, "bad relation name `{n}`"),
            SchemaError::UnknownEntityType { relation, entity_type } => {
                write!(f, "relation `{relation}`: unknown entity type `{entity_type}`")
            }
            SchemaError::NoColumns { relation, participant } => {
                write!(f, "relation `{relation}`: participant {participant} has no columns")
            }
            SchemaError::FirstColumnNotIdentifying { relation, participant, expected, found } => write!(
                f,
                "relation `{relation}`: participant {participant} must lead with identifying characteristic `{expected}`, found `{found}`"
            ),
            SchemaError::BadCharacteristic { relation, participant, characteristic } => write!(
                f,
                "relation `{relation}`: participant {participant} has invalid characteristic `{characteristic}`"
            ),
            SchemaError::DuplicateCharacteristic { relation, participant, characteristic } => write!(
                f,
                "relation `{relation}`: participant {participant} repeats characteristic `{characteristic}`"
            ),
            SchemaError::BadCasePair { relation, participant, predicate, case } => write!(
                f,
                "relation `{relation}`: participant {participant} fills invalid pair `{predicate}:{case}`"
            ),
            SchemaError::DuplicateCasePair { relation, predicate, case } => write!(
                f,
                "relation `{relation}`: pair `{predicate}:{case}` filled by two participants"
            ),
            SchemaError::IncompletePredicate { relation, predicate, missing } => write!(
                f,
                "relation `{relation}`: predicate `{predicate}` mentioned but case `{missing}` is not covered"
            ),
            SchemaError::TooManyNullableColumns { relation, nullable } => write!(
                f,
                "relation `{relation}`: {nullable} nullable columns, at most {MAX_NULLABLE_COLUMNS} supported"
            ),
            SchemaError::BadConstraint { constraint, reason } => {
                write!(f, "constraint `{constraint}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Heading-derived data precomputed at construction so the per-tuple
/// fact compiler ([`crate::facts::tuple_facts`]) and normalization's
/// saturation pass never rebuild predicate symbols or binding maps in
/// their inner loops. A pure function of the heading, so it never
/// affects `Eq`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CompiledHeading {
    /// Flat column offset per participant.
    offsets: Vec<usize>,
    /// `be <entity-type>` per participant.
    existence_preds: Vec<Symbol>,
    /// `<entity-type>.<characteristic>` per participant per column.
    char_preds: Vec<Vec<Symbol>>,
    /// The interned [`vocab::VALUE_CASE`] symbol.
    value_case: Symbol,
    /// All predicates mentioned by the heading.
    predicates: BTreeSet<Symbol>,
    /// Per mentioned predicate: its case → participant-index map.
    bindings: BTreeMap<Symbol, BTreeMap<Symbol, usize>>,
}

impl CompiledHeading {
    fn new(participants: &[Participant]) -> Self {
        use dme_logic::vocab;
        let mut offsets = Vec::with_capacity(participants.len());
        let mut acc = 0usize;
        for p in participants {
            offsets.push(acc);
            acc += p.width();
        }
        let existence_preds = participants
            .iter()
            .map(|p| vocab::existence_predicate(&p.entity_type))
            .collect();
        let char_preds = participants
            .iter()
            .map(|p| {
                p.columns
                    .iter()
                    .map(|c| vocab::characteristic_predicate(&p.entity_type, &c.characteristic))
                    .collect()
            })
            .collect();
        let predicates: BTreeSet<Symbol> = participants
            .iter()
            .flat_map(|p| p.case_pairs().map(|(pred, _)| pred.clone()))
            .collect();
        let bindings = predicates
            .iter()
            .map(|pred| {
                let mut out = BTreeMap::new();
                for (i, p) in participants.iter().enumerate() {
                    for (q, case) in p.case_pairs() {
                        if q == pred {
                            out.insert(case.clone(), i);
                        }
                    }
                }
                (pred.clone(), out)
            })
            .collect();
        CompiledHeading {
            offsets,
            existence_preds,
            char_preds,
            value_case: Symbol::new(vocab::VALUE_CASE),
            predicates,
            bindings,
        }
    }
}

/// One relation's heading: a name and its participants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    name: Symbol,
    participants: Vec<Participant>,
    compiled: CompiledHeading,
}

impl RelationSchema {
    /// Creates a heading (validated later against a universe by
    /// [`RelationalSchema::new`], or directly with
    /// [`RelationSchema::validate`]).
    pub fn new(
        name: impl Into<Symbol>,
        participants: impl IntoIterator<Item = Participant>,
    ) -> Self {
        let participants: Vec<Participant> = participants.into_iter().collect();
        let compiled = CompiledHeading::new(&participants);
        RelationSchema {
            name: name.into(),
            participants,
            compiled,
        }
    }

    /// The precomputed `be <entity-type>` predicate of a participant.
    pub fn existence_predicate_of(&self, participant: usize) -> &Symbol {
        &self.compiled.existence_preds[participant]
    }

    /// The precomputed `<entity-type>.<characteristic>` predicate of a
    /// participant column.
    pub fn characteristic_predicate_of(&self, participant: usize, column: usize) -> &Symbol {
        &self.compiled.char_preds[participant][column]
    }

    /// The interned `value` case symbol.
    pub fn value_case(&self) -> &Symbol {
        &self.compiled.value_case
    }

    /// The predicates mentioned by this heading, precomputed.
    pub fn mentioned(&self) -> &BTreeSet<Symbol> {
        &self.compiled.predicates
    }

    /// Precomputed case → participant-index map of a mentioned
    /// predicate (`None` for unmentioned predicates).
    pub fn bindings_of(&self, predicate: &str) -> Option<&BTreeMap<Symbol, usize>> {
        self.compiled.bindings.get(predicate)
    }

    /// Every mentioned predicate with its case → participant-index map,
    /// in predicate order.
    pub(crate) fn all_bindings(&self) -> impl Iterator<Item = (&Symbol, &BTreeMap<Symbol, usize>)> {
        self.compiled.bindings.iter()
    }

    /// The relation's name.
    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// The participants in heading order.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Total number of (flat) columns.
    pub fn arity(&self) -> usize {
        self.participants.iter().map(Participant::width).sum()
    }

    /// The flat column offset where `participant`'s columns begin.
    pub fn participant_offset(&self, participant: usize) -> usize {
        self.compiled.offsets[participant]
    }

    /// Flat column index of a participant's identifying column (always
    /// its first column).
    pub fn id_column(&self, participant: usize) -> usize {
        self.participant_offset(participant)
    }

    /// Flat column index of `characteristic` within `participant`.
    pub fn column(&self, participant: usize, characteristic: &str) -> Option<usize> {
        self.participants
            .get(participant)?
            .column_of(characteristic)
            .map(|i| self.participant_offset(participant) + i)
    }

    /// Finds the participant (by index) that fills `predicate:case`.
    pub fn participant_filling(&self, predicate: &str, case: &str) -> Option<usize> {
        self.participants
            .iter()
            .position(|p| p.fills(predicate, case))
    }

    /// All predicates mentioned by this heading (across participants).
    pub fn mentioned_predicates(&self) -> BTreeSet<Symbol> {
        self.compiled.predicates.clone()
    }

    /// For a mentioned predicate, the case → participant-index map.
    pub fn predicate_bindings(&self, predicate: &str) -> BTreeMap<Symbol, usize> {
        self.compiled
            .bindings
            .get(predicate)
            .cloned()
            .unwrap_or_default()
    }

    /// Validates the heading against the universe (see [`SchemaError`]).
    pub fn validate(&self, universe: &Universe) -> Result<(), SchemaError> {
        if self.name.is_empty() {
            return Err(SchemaError::BadRelationName(self.name.clone()));
        }
        let mut seen_pairs: BTreeSet<(Symbol, Symbol)> = BTreeSet::new();
        for (pi, p) in self.participants.iter().enumerate() {
            let et = universe
                .entity_type(p.entity_type.as_str())
                .ok_or_else(|| SchemaError::UnknownEntityType {
                    relation: self.name.clone(),
                    entity_type: p.entity_type.clone(),
                })?;
            if p.columns.is_empty() {
                return Err(SchemaError::NoColumns {
                    relation: self.name.clone(),
                    participant: pi,
                });
            }
            if &p.columns[0].characteristic != et.id_characteristic() {
                return Err(SchemaError::FirstColumnNotIdentifying {
                    relation: self.name.clone(),
                    participant: pi,
                    expected: et.id_characteristic().clone(),
                    found: p.columns[0].characteristic.clone(),
                });
            }
            let mut seen_chars = BTreeSet::new();
            for col in &p.columns {
                if !seen_chars.insert(col.characteristic.clone()) {
                    return Err(SchemaError::DuplicateCharacteristic {
                        relation: self.name.clone(),
                        participant: pi,
                        characteristic: col.characteristic.clone(),
                    });
                }
                match et.domain_of(col.characteristic.as_str()) {
                    Some(d) if *d == col.domain => {}
                    _ => {
                        return Err(SchemaError::BadCharacteristic {
                            relation: self.name.clone(),
                            participant: pi,
                            characteristic: col.characteristic.clone(),
                        })
                    }
                }
            }
            for (pred, case) in p.case_pairs() {
                let ok = universe
                    .predicate(pred.as_str())
                    .and_then(|pd| pd.case_type(case.as_str()))
                    .is_some_and(|ct| *ct == p.entity_type);
                if !ok {
                    return Err(SchemaError::BadCasePair {
                        relation: self.name.clone(),
                        participant: pi,
                        predicate: pred.clone(),
                        case: case.clone(),
                    });
                }
                if !seen_pairs.insert((pred.clone(), case.clone())) {
                    return Err(SchemaError::DuplicateCasePair {
                        relation: self.name.clone(),
                        predicate: pred.clone(),
                        case: case.clone(),
                    });
                }
            }
        }
        // Completeness: every mentioned predicate must have all cases
        // covered so statements compile into complete association facts.
        for pred in self.mentioned_predicates() {
            let decl = universe
                .predicate(pred.as_str())
                .expect("checked above: mentioned predicates are declared");
            let bound = self.predicate_bindings(pred.as_str());
            for (case, _) in decl.cases() {
                if !bound.contains_key(case) {
                    return Err(SchemaError::IncompletePredicate {
                        relation: self.name.clone(),
                        predicate: pred.clone(),
                        missing: case.clone(),
                    });
                }
            }
        }
        let nullable = self
            .participants
            .iter()
            .flat_map(|p| &p.columns)
            .filter(|c| c.nullable)
            .count();
        if nullable > MAX_NULLABLE_COLUMNS {
            return Err(SchemaError::TooManyNullableColumns {
                relation: self.name.clone(),
                nullable,
            });
        }
        Ok(())
    }
}

/// The declarative half of a semantic-relation application model: the
/// universe agreement, the relation headings, and the constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationalSchema {
    universe: Universe,
    relations: BTreeMap<Symbol, RelationSchema>,
    constraints: Vec<Constraint>,
}

impl RelationalSchema {
    /// Builds and validates a relational schema.
    pub fn new(
        universe: Universe,
        relations: impl IntoIterator<Item = RelationSchema>,
        constraints: impl IntoIterator<Item = Constraint>,
    ) -> Result<Self, SchemaError> {
        let mut rels = BTreeMap::new();
        for r in relations {
            r.validate(&universe)?;
            if rels.contains_key(r.name()) {
                return Err(SchemaError::BadRelationName(r.name().clone()));
            }
            rels.insert(r.name().clone(), r);
        }
        let schema = RelationalSchema {
            universe,
            relations: rels,
            constraints: Vec::new(),
        };
        let mut schema = schema;
        for c in constraints {
            c.validate(&schema)
                .map_err(|reason| SchemaError::BadConstraint {
                    constraint: c.describe(),
                    reason,
                })?;
            schema.constraints.push(c);
        }
        Ok(schema)
    }

    /// The shared universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Looks up a relation heading.
    pub fn relation(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name)
    }

    /// All relation headings in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The fact vocabulary this schema can express: entity types with an
    /// existence participant somewhere, the characteristic columns
    /// present, and the predicates mentioned. For a *full* view over its
    /// universe this is the whole vocabulary; for a subset external
    /// schema (§1.2) it is the sub-language that state equivalence and
    /// operation translation are relativized to.
    pub fn vocabulary(&self) -> dme_logic::vocab::FactFilter {
        let mut filter = dme_logic::vocab::FactFilter::new();
        for rel in self.relations.values() {
            for p in rel.participants() {
                if p.asserts_existence() {
                    filter.entity_types.insert(p.entity_type.clone());
                }
                for col in p.columns.iter().skip(1) {
                    filter
                        .characteristics
                        .insert((p.entity_type.clone(), col.characteristic.clone()));
                }
                for (pred, _) in p.case_pairs() {
                    filter.predicates.insert(pred.clone());
                }
            }
        }
        filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::sym;

    fn universe() -> Universe {
        Universe::machine_shop()
    }

    fn employees() -> RelationSchema {
        RelationSchema::new(
            "Employees",
            [Participant::new(
                "employee",
                [Pair::Existence],
                [
                    CharacteristicCol::required("name", "names"),
                    CharacteristicCol::required("age", "years"),
                ],
            )],
        )
    }

    fn operate() -> RelationSchema {
        RelationSchema::new(
            "Operate",
            [
                Participant::new(
                    "employee",
                    [Pair::case("operate", "agent")],
                    [CharacteristicCol::required("name", "names")],
                ),
                Participant::new(
                    "machine",
                    [Pair::Existence, Pair::case("operate", "object")],
                    [
                        CharacteristicCol::required("number", "serial-numbers"),
                        CharacteristicCol::required("type", "machine-types"),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn valid_headings_pass() {
        let u = universe();
        employees().validate(&u).unwrap();
        operate().validate(&u).unwrap();
    }

    #[test]
    fn offsets_and_columns() {
        let op = operate();
        assert_eq!(op.arity(), 3);
        assert_eq!(op.participant_offset(0), 0);
        assert_eq!(op.participant_offset(1), 1);
        assert_eq!(op.id_column(1), 1);
        assert_eq!(op.column(1, "type"), Some(2));
        assert_eq!(op.column(1, "name"), None);
        assert_eq!(op.participant_filling("operate", "object"), Some(1));
        assert_eq!(op.participant_filling("operate", "instrument"), None);
    }

    #[test]
    fn mentioned_predicates_and_bindings() {
        let op = operate();
        let preds = op.mentioned_predicates();
        assert!(preds.contains("operate"));
        assert_eq!(preds.len(), 1);
        let b = op.predicate_bindings("operate");
        assert_eq!(b.get("agent"), Some(&0));
        assert_eq!(b.get("object"), Some(&1));
    }

    #[test]
    fn rejects_unknown_entity_type() {
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "robot",
                [],
                [CharacteristicCol::required("name", "names")],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::UnknownEntityType { .. })
        ));
    }

    #[test]
    fn rejects_wrong_first_column() {
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "employee",
                [],
                [CharacteristicCol::required("age", "years")],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::FirstColumnNotIdentifying { .. })
        ));
    }

    #[test]
    fn rejects_bad_domain_for_characteristic() {
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "employee",
                [],
                [CharacteristicCol::required("name", "years")],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::BadCharacteristic { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_characteristic() {
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "employee",
                [],
                [
                    CharacteristicCol::required("name", "names"),
                    CharacteristicCol::required("name", "names"),
                ],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::DuplicateCharacteristic { .. })
        ));
    }

    #[test]
    fn rejects_bad_case_pair() {
        // `operate:object` accepts machines, not employees.
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "employee",
                [Pair::case("operate", "object")],
                [CharacteristicCol::required("name", "names")],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::BadCasePair { .. })
        ));
    }

    #[test]
    fn rejects_incomplete_predicate() {
        // Mentions operate:agent but nothing fills operate:object.
        let r = RelationSchema::new(
            "R",
            [Participant::new(
                "employee",
                [Pair::case("operate", "agent")],
                [CharacteristicCol::required("name", "names")],
            )],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::IncompletePredicate { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_case_pair() {
        let r = RelationSchema::new(
            "R",
            [
                Participant::new(
                    "employee",
                    [
                        Pair::case("supervise", "agent"),
                        Pair::case("supervise", "object"),
                    ],
                    [CharacteristicCol::required("name", "names")],
                ),
                Participant::new(
                    "employee",
                    [Pair::case("supervise", "agent")],
                    [CharacteristicCol::required("name", "names")],
                ),
            ],
        );
        assert!(matches!(
            r.validate(&universe()),
            Err(SchemaError::DuplicateCasePair { .. })
        ));
    }

    #[test]
    fn relational_schema_rejects_duplicate_relation_names() {
        let u = universe();
        let err = RelationalSchema::new(u, [employees(), employees()], []).unwrap_err();
        assert_eq!(err, SchemaError::BadRelationName(sym!("Employees")));
    }

    #[test]
    fn relational_schema_accessors() {
        let s = RelationalSchema::new(universe(), [employees(), operate()], []).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.relation("Employees").is_some());
        assert!(s.relation("Nope").is_none());
        assert_eq!(s.constraints().len(), 0);
    }

    /// `width` participants of one nullable column each.
    fn nullable_relation(width: usize) -> RelationSchema {
        RelationSchema::new(
            "Wide",
            (0..width).map(|_| {
                Participant::new(
                    "employee",
                    [Pair::Existence],
                    [CharacteristicCol::optional("name", "names")],
                )
            }),
        )
    }

    #[test]
    fn relational_schema_rejects_too_many_nullable_columns() {
        RelationalSchema::new(universe(), [nullable_relation(MAX_NULLABLE_COLUMNS)], []).unwrap();
        let err = RelationalSchema::new(
            universe(),
            [nullable_relation(MAX_NULLABLE_COLUMNS + 1)],
            [],
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchemaError::TooManyNullableColumns {
                relation: sym!("Wide"),
                nullable: MAX_NULLABLE_COLUMNS + 1,
            }
        );
        assert!(err.to_string().contains("17 nullable columns"));
    }

    #[test]
    fn pair_display() {
        assert_eq!(Pair::case("operate", "agent").to_string(), "operate:agent");
        assert_eq!(Pair::Existence.to_string(), "be _:object");
    }
}
