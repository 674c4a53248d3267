//! Witness application models for the equivalence hierarchy.
//!
//! §3.3.1 observes that the three types of application model equivalence
//! are *decreasingly strict*: isomorphic ⇒ composed operation ⇒ state
//! dependent. The witnesses here separate the levels:
//!
//! * [`mini_relational_schema`] vs [`mini_relational_schema_renamed`] —
//!   **isomorphically** equivalent (a pure renaming);
//! * the same model with single-statement operations vs with
//!   two-statement operations — **composed-operation** equivalent but not
//!   isomorphic (a two-statement insertion corresponds to a composition
//!   of single insertions, not to any single one);
//! * [`micro_relational_schema`] vs [`micro_graph_schema`] — **state
//!   dependent** equivalent but not composed: `insert-statements` is
//!   idempotent (inserting an already-true statement is the identity)
//!   while `insert-association` is strict (inserting an existing
//!   association is the error state), so the relational insertion's
//!   equivalent on the graph side is `insert-association` in states where
//!   the association is absent and the *empty composition* where it is
//!   present — a choice that depends on the state, exactly the
//!   phenomenon of the paper's Figures 7/8.
//!
//! All witnesses use **enumerated** domains small enough for the checkers
//! to enumerate the full closure of valid states.

use dme_logic::{EntityTypeDecl, PredicateDecl, Universe};
use dme_value::{sym, Domain, DomainCatalog, Symbol};

use dme_graph::{GraphSchema, Participation};
use dme_relation::{
    CharacteristicCol, ColsRef, Constraint, Pair, Participant, RelationSchema, RelationalSchema,
};

/// Employee names of [`machine_shop`], in domain order.
const SHOP_NAMES: [&str; 6] = [
    "A.Alpha",
    "B.Beta",
    "C.Gamma",
    "D.Delta",
    "E.Epsilon",
    "F.Phi",
];

/// The machine shop over `names` employees (one possible age) and
/// `machines` machines (one possible type): the Figure 3 relational
/// schema shape and the Figure 5 graph schema shape over the same
/// universe. The mini shop is `machine_shop(2, 1)`; larger sizes grow
/// the closures the checkers enumerate (ROADMAP item 1).
///
/// # Panics
///
/// When `names` exceeds 6, or when either size is 0.
pub fn machine_shop(names: usize, machines: usize) -> (RelationalSchema, GraphSchema) {
    let universe = machine_shop_universe(names, machines);
    (
        machine_shop_relational(universe.clone()),
        machine_shop_graph(universe),
    )
}

/// The universe of [`machine_shop`]: names `A.Alpha`, `B.Beta`, … and
/// serial numbers `M1`, `M2`, ….
fn machine_shop_universe(names: usize, machines: usize) -> Universe {
    assert!(
        (1..=SHOP_NAMES.len()).contains(&names) && machines >= 1,
        "machine_shop supports 1 to {} names and at least one machine",
        SHOP_NAMES.len()
    );
    let serials: Vec<String> = (1..=machines).map(|m| format!("M{m}")).collect();
    let domains = DomainCatalog::new()
        .with(Domain::of_strs(
            "names",
            SHOP_NAMES[..names].iter().copied(),
        ))
        .with(Domain::of_ints("years", [30]))
        .with(Domain::of_strs(
            "serial-numbers",
            serials.iter().map(String::as_str),
        ))
        .with(Domain::of_strs("machine-types", ["lathe"]));
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
    .expect("machine shop universe is well-formed")
}

/// A reduced machine shop: two employees (one possible age), one machine
/// (one possible type) — [`machine_shop`]`(2, 1)`'s universe. Small
/// enough that the full closure of valid states is enumerable, rich
/// enough to exercise machines' semantic units.
pub fn mini_universe() -> Universe {
    machine_shop_universe(2, 1)
}

fn machine_shop_relations() -> [RelationSchema; 3] {
    [
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
        ),
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
        ),
        RelationSchema::new(
            "Jobs",
            [
                Participant::new(
                    "employee",
                    [Pair::case("supervise", "agent")],
                    [CharacteristicCol::optional("name", "names")],
                ),
                Participant::new(
                    "employee",
                    [
                        Pair::case("supervise", "object"),
                        Pair::case("operate", "agent"),
                    ],
                    [CharacteristicCol::required("name", "names")],
                ),
                Participant::new(
                    "machine",
                    [Pair::case("operate", "object")],
                    [CharacteristicCol::optional("number", "serial-numbers")],
                ),
            ],
        ),
    ]
}

fn machine_shop_constraints(employees: &str, operate: &str, jobs: &str) -> Vec<Constraint> {
    vec![
        Constraint::Subset {
            from: ColsRef::new(operate, [0]),
            to: ColsRef::new(employees, [0]),
        },
        Constraint::NotNull {
            relation: operate.into(),
            column: 0,
        },
        Constraint::Unique {
            relation: operate.into(),
            columns: vec![1],
        },
        Constraint::Agreement {
            left: ColsRef::new(operate, [0, 1]),
            right: ColsRef::new(jobs, [1, 2]),
        },
        Constraint::Unique {
            relation: employees.into(),
            columns: vec![0],
        },
        Constraint::Subset {
            from: ColsRef::new(jobs, [0]),
            to: ColsRef::new(employees, [0]),
        },
        Constraint::Subset {
            from: ColsRef::new(jobs, [1]),
            to: ColsRef::new(employees, [0]),
        },
    ]
}

/// The Figure 3 schema shape over the mini universe.
pub fn mini_relational_schema() -> RelationalSchema {
    machine_shop_relational(mini_universe())
}

fn machine_shop_relational(universe: Universe) -> RelationalSchema {
    RelationalSchema::new(
        universe,
        machine_shop_relations(),
        machine_shop_constraints("Employees", "Operate", "Jobs"),
    )
    .expect("machine shop relational schema is well-formed")
}

/// The same application model with every relation renamed — states and
/// operations correspond 1-1, so this is the isomorphic-equivalence
/// witness.
pub fn mini_relational_schema_renamed() -> RelationalSchema {
    let [employees, operate, jobs] = machine_shop_relations();
    let rename =
        |r: RelationSchema, name: &str| RelationSchema::new(name, r.participants().iter().cloned());
    RelationalSchema::new(
        mini_universe(),
        [
            rename(employees, "Staff"),
            rename(operate, "Runs"),
            rename(jobs, "Duties"),
        ],
        machine_shop_constraints("Staff", "Runs", "Duties"),
    )
    .expect("renamed mini relational schema is well-formed")
}

/// The Figure 5 schema shape over the mini universe.
pub fn mini_graph_schema() -> GraphSchema {
    machine_shop_graph(mini_universe())
}

fn machine_shop_graph(universe: Universe) -> GraphSchema {
    GraphSchema::new(
        universe,
        [
            ((sym!("operate"), sym!("agent")), Participation::OPTIONAL),
            (
                (sym!("operate"), sym!("object")),
                Participation::TOTAL_FUNCTIONAL,
            ),
            ((sym!("supervise"), sym!("agent")), Participation::OPTIONAL),
            ((sym!("supervise"), sym!("object")), Participation::OPTIONAL),
        ],
    )
    .expect("machine shop graph schema is well-formed")
}

/// The Figure 9 single-relation schema shape over the mini universe —
/// the second relational application model equivalent to the mini graph
/// model ("there may be several relational application models state
/// dependent equivalent to each graph model", §3.3.2).
pub fn mini_figure9_schema() -> RelationalSchema {
    RelationalSchema::new(
        mini_universe(),
        [RelationSchema::new(
            "Jobs",
            [
                Participant::new(
                    "employee",
                    [Pair::case("supervise", "agent")],
                    [CharacteristicCol::optional("name", "names")],
                ),
                Participant::new(
                    "employee",
                    [
                        Pair::Existence,
                        Pair::case("supervise", "object"),
                        Pair::case("operate", "agent"),
                    ],
                    [
                        CharacteristicCol::required("name", "names"),
                        CharacteristicCol::required("age", "years"),
                    ],
                ),
                Participant::new(
                    "machine",
                    [Pair::Existence, Pair::case("operate", "object")],
                    [
                        CharacteristicCol::optional("number", "serial-numbers"),
                        CharacteristicCol::optional("type", "machine-types"),
                    ],
                ),
            ],
        )],
        [
            Constraint::Functional {
                relation: "Jobs".into(),
                determinant: vec![1],
                dependent: vec![2],
            },
            Constraint::Functional {
                relation: "Jobs".into(),
                determinant: vec![3],
                dependent: vec![4],
            },
            Constraint::Functional {
                relation: "Jobs".into(),
                determinant: vec![3],
                dependent: vec![1],
            },
            Constraint::Implies {
                relation: "Jobs".into(),
                if_nonnull: 3,
                then_nonnull: 4,
            },
            Constraint::Subset {
                from: ColsRef::new("Jobs", [0]),
                to: ColsRef::new("Jobs", [1]),
            },
        ],
    )
    .expect("mini figure 9 schema is well-formed")
}

/// An even smaller universe — two employees, supervision only — used
/// where the machine semantic unit is irrelevant and checker cost
/// matters.
pub fn micro_universe() -> Universe {
    let domains = DomainCatalog::new().with(Domain::of_strs("names", ["A.Alpha", "B.Beta"]));
    Universe::new(
        domains,
        [EntityTypeDecl::new(
            "employee",
            "name",
            [(Symbol::new("name"), Symbol::new("names"))],
        )],
        [PredicateDecl::new(
            "supervise",
            [
                (Symbol::new("agent"), Symbol::new("employee")),
                (Symbol::new("object"), Symbol::new("employee")),
            ],
        )],
    )
    .expect("micro universe is well-formed")
}

/// Employees + Super over the micro universe.
pub fn micro_relational_schema() -> RelationalSchema {
    RelationalSchema::new(
        micro_universe(),
        [
            RelationSchema::new(
                "Employees",
                [Participant::new(
                    "employee",
                    [Pair::Existence],
                    [CharacteristicCol::required("name", "names")],
                )],
            ),
            RelationSchema::new(
                "Super",
                [
                    Participant::new(
                        "employee",
                        [Pair::case("supervise", "agent")],
                        [CharacteristicCol::required("name", "names")],
                    ),
                    Participant::new(
                        "employee",
                        [Pair::case("supervise", "object")],
                        [CharacteristicCol::required("name", "names")],
                    ),
                ],
            ),
        ],
        [
            Constraint::Unique {
                relation: "Employees".into(),
                columns: vec![0],
            },
            Constraint::Subset {
                from: ColsRef::new("Super", [0]),
                to: ColsRef::new("Employees", [0]),
            },
            Constraint::Subset {
                from: ColsRef::new("Super", [1]),
                to: ColsRef::new("Employees", [0]),
            },
        ],
    )
    .expect("micro relational schema is well-formed")
}

/// [`micro_relational_schema`] with every relation renamed — the
/// isomorphic-equivalence witness at micro scale.
pub fn micro_relational_schema_renamed() -> RelationalSchema {
    let base = micro_relational_schema();
    let rename = |old: &str, new: &str| {
        RelationSchema::new(
            new,
            base.relation(old).unwrap().participants().iter().cloned(),
        )
    };
    RelationalSchema::new(
        micro_universe(),
        [rename("Employees", "Staff"), rename("Super", "Oversees")],
        [
            Constraint::Unique {
                relation: "Staff".into(),
                columns: vec![0],
            },
            Constraint::Subset {
                from: ColsRef::new("Oversees", [0]),
                to: ColsRef::new("Staff", [0]),
            },
            Constraint::Subset {
                from: ColsRef::new("Oversees", [1]),
                to: ColsRef::new("Staff", [0]),
            },
        ],
    )
    .expect("renamed micro relational schema is well-formed")
}

/// [`micro_relational_schema`] plus a constraint with no graph
/// counterpart — "every supervisor must also be supervised" (a subset
/// constraint between two roles of the same predicate). Graph schemas
/// can only express totality and functionality per (predicate, role), so
/// no graph application model over the micro universe is equivalent to
/// this one: the witness of *partial* data model equivalence (§3.3.2,
/// "a relational application model may have either too many or too few
/// constraints to be equivalent to a graph model").
pub fn micro_relational_schema_supervisors_supervised() -> RelationalSchema {
    let base = micro_relational_schema();
    let relations: Vec<RelationSchema> = base.relations().cloned().collect();
    let mut constraints: Vec<Constraint> = base.constraints().to_vec();
    constraints.push(Constraint::Subset {
        from: ColsRef::new("Super", [0]),
        to: ColsRef::new("Super", [1]),
    });
    RelationalSchema::new(micro_universe(), relations, constraints)
        .expect("constrained micro relational schema is well-formed")
}

/// Every graph application model over the micro universe: all
/// assignments of participation rules to the two supervise roles. Used
/// by the Definition 6 experiments to show that *no* graph model matches
/// an inexpressibly-constrained relational model.
pub fn all_micro_graph_schemas() -> Vec<GraphSchema> {
    let flags = [
        Participation {
            total: false,
            functional: false,
        },
        Participation {
            total: false,
            functional: true,
        },
        Participation {
            total: true,
            functional: false,
        },
        Participation {
            total: true,
            functional: true,
        },
    ];
    let mut out = Vec::new();
    for agent in flags {
        for object in flags {
            out.push(
                GraphSchema::new(
                    micro_universe(),
                    [
                        ((sym!("supervise"), sym!("agent")), agent),
                        ((sym!("supervise"), sym!("object")), object),
                    ],
                )
                .expect("micro graph schema is well-formed"),
            );
        }
    }
    out
}

/// The graph counterpart of [`micro_relational_schema`].
pub fn micro_graph_schema() -> GraphSchema {
    GraphSchema::new(
        micro_universe(),
        [
            ((sym!("supervise"), sym!("agent")), Participation::OPTIONAL),
            ((sym!("supervise"), sym!("object")), Participation::OPTIONAL),
        ],
    )
    .expect("micro graph schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_witness_schemas_build() {
        mini_relational_schema();
        mini_relational_schema_renamed();
        mini_graph_schema();
        micro_relational_schema();
        micro_graph_schema();
    }

    /// The mini shop is the machine shop at (2, 1), over the domains it
    /// always had; larger sizes only widen the names and serial numbers.
    #[test]
    fn machine_shop_two_by_one_is_the_mini_shop() {
        let (relational, graph) = machine_shop(2, 1);
        assert_eq!(relational, mini_relational_schema());
        assert_eq!(graph, mini_graph_schema());
        let literal = DomainCatalog::new()
            .with(Domain::of_strs("names", ["A.Alpha", "B.Beta"]))
            .with(Domain::of_ints("years", [30]))
            .with(Domain::of_strs("serial-numbers", ["M1"]))
            .with(Domain::of_strs("machine-types", ["lathe"]));
        assert_eq!(relational.universe().domains(), &literal);

        let (wide, wide_graph) = machine_shop(3, 2);
        let wider = DomainCatalog::new()
            .with(Domain::of_strs("names", ["A.Alpha", "B.Beta", "C.Gamma"]))
            .with(Domain::of_ints("years", [30]))
            .with(Domain::of_strs("serial-numbers", ["M1", "M2"]))
            .with(Domain::of_strs("machine-types", ["lathe"]));
        assert_eq!(wide.universe().domains(), &wider);
        assert_eq!(wide_graph.universe(), wide.universe());
        assert_eq!(wide.relations().count(), 3);
    }

    #[test]
    fn renamed_schema_shares_shapes() {
        let a = mini_relational_schema();
        let b = mini_relational_schema_renamed();
        assert_eq!(
            a.relation("Jobs").unwrap().participants(),
            b.relation("Duties").unwrap().participants()
        );
        assert!(b.relation("Jobs").is_none());
    }
}
