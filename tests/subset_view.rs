//! The §1.2 extension: external schemas describing a **subset** of the
//! conceptual schema.
//!
//! "The external schema may present to the user just a subset of the
//! information described in the conceptual schema. … the definitions to
//! be presented can be extended to handle the case where the external
//! schema describes a subset of the conceptual schema."
//!
//! The personnel view sees employees and supervisions; machines and
//! operate associations are invisible. State equivalence and operation
//! translation are relativized to the view's vocabulary; conceptual
//! cascades outside that vocabulary are permitted side-effects.

use std::sync::Arc;

use borkin_equiv::equivalence::translate::{
    graph_op_to_relational, materialize_relational_state, relational_op_to_graph, CompletionMode,
};
use borkin_equiv::graph::fixtures as gfix;
use borkin_equiv::graph::{Association, EntityRef, GraphOp};
use borkin_equiv::logic::{state_equivalent, ToFacts};
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::{MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec};
use borkin_equiv::value::{tuple, Atom};

fn emp(name: &str) -> EntityRef {
    EntityRef::new("employee", Atom::str(name))
}

fn personnel_state() -> borkin_equiv::relation::RelationState {
    let schema = Arc::new(rfix::personnel_schema());
    materialize_relational_state(&schema, &gfix::figure4_state().to_facts())
        .expect("personnel view materializes")
}

#[test]
fn vocabulary_excludes_machines() {
    let vocab = rfix::personnel_schema().vocabulary();
    assert!(vocab.entity_types.contains("employee"));
    assert!(!vocab.entity_types.contains("machine"));
    assert!(vocab.predicates.contains("supervise"));
    assert!(!vocab.predicates.contains("operate"));
    // And the full machine-shop schema's vocabulary covers it.
    assert!(rfix::machine_shop_schema().vocabulary().covers(&vocab));
    assert!(!vocab.covers(&rfix::machine_shop_schema().vocabulary()));
}

#[test]
fn materialization_keeps_only_visible_facts() {
    let view = personnel_state();
    view.well_formed().unwrap();
    assert_eq!(view.tuples("Employees").count(), 3);
    assert_eq!(view.tuples("Supervisions").count(), 1);
    // 3 existence + 3 ages + 1 supervise = 7 facts.
    assert_eq!(view.to_facts().len(), 7);
    // Equivalent to the conceptual state *within the vocabulary*.
    let vocab = view.schema().vocabulary();
    let filtered = vocab.filter(&gfix::figure4_state().to_facts());
    assert!(state_equivalent(&view, &filtered).is_equivalent());
}

#[test]
fn conceptual_update_visible_to_the_view() {
    let view = personnel_state();
    let op = GraphOp::InsertAssociation(Association::new(
        "supervise",
        [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
    ));
    let rops = graph_op_to_relational(
        &op,
        &gfix::figure4_state(),
        &view,
        CompletionMode::StateCompleted,
    )
    .unwrap();
    let after = RelOp::apply_all(&rops, &view).unwrap();
    assert_eq!(after.tuples("Supervisions").count(), 2);
}

#[test]
fn conceptual_update_invisible_to_the_view() {
    // Deleting the machine unit changes nothing the personnel view can
    // see: the translation is the empty composed operation.
    let view = personnel_state();
    let unit = borkin_equiv::graph::unit::deletion_unit(
        &gfix::figure4_state(),
        [EntityRef::new("machine", Atom::str("NZ745"))],
        [],
    );
    let rops = graph_op_to_relational(
        &GraphOp::DeleteUnit(unit),
        &gfix::figure4_state(),
        &view,
        CompletionMode::Minimal,
    )
    .unwrap();
    assert!(rops.is_empty());
}

#[test]
fn view_update_translates_up() {
    let view = personnel_state();
    let op = RelOp::insert("Supervisions", [tuple!["G.Wayshum", "T.Manhart"]]);
    let gops = relational_op_to_graph(&op, &view, &gfix::figure4_state()).unwrap();
    assert_eq!(gops.len(), 1);
    let after = GraphOp::apply_all(&gops, &gfix::figure4_state()).unwrap();
    assert_eq!(after, gfix::figure6_state());
}

#[test]
fn view_delete_cascades_invisibly() {
    // The personnel clerk deletes T.Manhart (and their statements). On
    // the conceptual side the machine T.Manhart operates must go too —
    // a cascade outside the view's vocabulary, permitted and verified
    // within it.
    let view = personnel_state();
    let op = RelOp::delete("Employees", [tuple!["T.Manhart", 32]]);
    let gops = relational_op_to_graph(&op, &view, &gfix::figure4_state()).unwrap();
    assert_eq!(gops.len(), 1);
    assert!(matches!(&gops[0], GraphOp::DeleteUnit(u) if u.entities.len() == 2));
    let after = GraphOp::apply_all(&gops, &gfix::figure4_state()).unwrap();
    // Machine NZ745 is gone from the conceptual state.
    assert!(after
        .entity(&EntityRef::new("machine", Atom::str("NZ745")))
        .is_none());
    assert!(after.entity(&emp("T.Manhart")).is_none());
}

#[test]
fn ansi_database_with_mixed_full_and_subset_views() {
    let service = SessionService::new(
        gfix::figure4_state(),
        vec![
            ViewSpec {
                name: "full".into(),
                schema: rfix::machine_shop_schema(),
                mode: CompletionMode::StateCompleted,
            },
            ViewSpec {
                name: "personnel".into(),
                schema: rfix::personnel_schema(),
                mode: CompletionMode::Minimal,
            },
        ],
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    service.verify_consistency().unwrap();

    // A conceptual machine deletion: the full view changes, the
    // personnel view does not.
    let unit = borkin_equiv::graph::unit::deletion_unit(
        &service.conceptual(),
        [EntityRef::new("machine", Atom::str("NZ745"))],
        [],
    );
    let personnel_before = service.view_state("personnel").unwrap();
    let mut graph = service.open_session(SessionKind::Graph).unwrap();
    graph
        .submit_graph(vec![GraphOp::DeleteUnit(unit)])
        .unwrap()
        .expect_commit();
    service.verify_consistency().unwrap();
    assert_eq!(service.view_state("personnel").unwrap(), personnel_before);
    assert_eq!(
        service.view_state("full").unwrap(),
        rfix::figure8_premise_state()
    );

    // An update through the subset view propagates everywhere.
    let op = RelOp::insert("Supervisions", [tuple!["G.Wayshum", "T.Manhart"]]);
    let mut personnel = service
        .open_session(SessionKind::Relational {
            view: "personnel".into(),
        })
        .unwrap();
    personnel.submit_relational(&op).unwrap().expect_commit();
    service.verify_consistency().unwrap();
    assert!(service
        .view_state("full")
        .unwrap()
        .tuples("Jobs")
        .any(|t| t[0] == borkin_equiv::value::Value::str("G.Wayshum")
            && t[1] == borkin_equiv::value::Value::str("T.Manhart")));
}
