//! §4: "The same types of equivalence mappings must be involved in the
//! transportation of a database and associated programs from one
//! database system to another."
//!
//! Transport here is compile → ship facts → materialize: a standalone
//! semantic-relation database is moved onto a brand-new graph-conceptual
//! multi-model system (and back), preserving state equivalence and
//! continuing to accept updates on the new system.

use std::sync::Arc;

use borkin_equiv::equivalence::translate::{materialize_relational_state, CompletionMode};
use borkin_equiv::graph::facts::materialize_graph_state;
use borkin_equiv::graph::fixtures as gfix;
use borkin_equiv::logic::{state_equivalent, ToFacts};
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::{MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec};
use borkin_equiv::value::tuple;

#[test]
fn relational_database_transports_to_a_graph_system() {
    // The "old system": a standalone Figure 3 relational database.
    let old = rfix::figure3_state();
    let shipped = old.to_facts();

    // The "new system": a graph conceptual schema over the same
    // case-grammar universe — the §3.2.3 agreement that makes transport
    // well-defined.
    let conceptual = materialize_graph_state(Arc::new(gfix::machine_shop_graph_schema()), &shipped)
        .expect("shipped content materializes as a graph state");
    assert_eq!(conceptual, gfix::figure4_state());

    // Spin up the full new system with the old schema as one of its
    // views; the users' old queries keep working.
    let service = SessionService::new(
        conceptual,
        vec![ViewSpec {
            name: "legacy".into(),
            schema: rfix::machine_shop_schema(),
            mode: CompletionMode::StateCompleted,
        }],
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .expect("new system initializes");
    assert_eq!(service.view_state("legacy").unwrap(), old);
    service
        .verify_consistency()
        .expect("consistent after transport");

    // And the migrated database accepts updates through the legacy view.
    let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", "NZ745"]]);
    let mut legacy = service
        .open_session(SessionKind::Relational {
            view: "legacy".into(),
        })
        .unwrap();
    legacy
        .submit_relational(&op)
        .expect("post-migration update")
        .expect_commit();
    assert_eq!(*service.conceptual(), gfix::figure6_state());
}

#[test]
fn graph_database_transports_to_a_relational_system() {
    let old = gfix::figure4_state();
    let shipped = old.to_facts();

    // Either relational application model can receive the content.
    for schema in [rfix::machine_shop_schema(), rfix::figure9_schema()] {
        let schema = Arc::new(schema);
        let new = materialize_relational_state(&schema, &shipped)
            .expect("shipped content materializes relationally");
        assert!(state_equivalent(&old, &new).is_equivalent());
    }
}

#[test]
fn round_trip_transport_is_identity() {
    let original = rfix::figure3_state();
    let graph = materialize_graph_state(
        Arc::new(gfix::machine_shop_graph_schema()),
        &original.to_facts(),
    )
    .unwrap();
    let back =
        materialize_relational_state(&Arc::new(rfix::machine_shop_schema()), &graph.to_facts())
            .unwrap();
    assert_eq!(back, original);
}
