//! Failure injection: every invalid operation, at every level of every
//! model, must yield the paper's error state and leave the database
//! byte-identical — "one such possible new state is the *error* state"
//! (§2.1), and operations are pure functions of the state.

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::fixtures as gfix;
use borkin_equiv::graph::{Association, Entity, EntityRef, GraphOp, SemanticUnit};
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::ops::StatementSet;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::{
    MemDevice, ServiceConfig, Session, SessionKind, SessionService, ViewSpec,
};
use borkin_equiv::syntactic::codd::CoddOp;
use borkin_equiv::syntactic::dbtg::{DbtgOp, Record, RecordId};
use borkin_equiv::syntactic::fixtures as sfix;
use borkin_equiv::value::{tuple, Atom, Value};

fn emp(name: &str) -> EntityRef {
    EntityRef::new("employee", Atom::str(name))
}

fn machine(number: &str) -> EntityRef {
    EntityRef::new("machine", Atom::str(number))
}

fn full_view() -> ViewSpec {
    ViewSpec {
        name: "full".into(),
        schema: rfix::machine_shop_schema(),
        mode: CompletionMode::StateCompleted,
    }
}

fn personnel_view() -> ViewSpec {
    ViewSpec {
        name: "personnel".into(),
        schema: rfix::personnel_schema(),
        mode: CompletionMode::Minimal,
    }
}

/// A Figure 4 service serving `views`.
fn boot(views: Vec<ViewSpec>) -> SessionService {
    SessionService::new(
        gfix::figure4_state(),
        views,
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap()
}

fn open(service: &SessionService, view: &str) -> Session {
    service
        .open_session(SessionKind::Relational { view: view.into() })
        .unwrap()
}

#[test]
fn every_invalid_relational_op_is_rejected_cleanly() {
    let state = rfix::figure3_state();
    let invalid: Vec<RelOp> = vec![
        // Unknown relation.
        RelOp::insert("Ghost", [tuple!["x"]]),
        // Domain violation.
        RelOp::insert("Employees", [tuple!["Nobody", 32]]),
        // Wrong arity.
        RelOp::insert("Employees", [tuple!["T.Manhart"]]),
        // Null in non-nullable column.
        RelOp::insert("Employees", [tuple![Value::Null, 32]]),
        // Vacuous statement.
        RelOp::insert("Jobs", [tuple![Value::Null, "G.Wayshum", Value::Null]]),
        // Key violation (constraint 3): second operator for JCL181.
        RelOp::insert("Operate", [tuple!["G.Wayshum", "JCL181", "press"]]),
        // Second age for an employee (Unique Employees[0]).
        RelOp::insert("Employees", [tuple!["T.Manhart", 40]]),
        // Agreement violation: Jobs pair Operate lacks.
        RelOp::insert("Jobs", [tuple![Value::Null, "G.Wayshum", "NZ745"]]),
        // Deleting an employee still referenced by statements.
        RelOp::delete("Employees", [tuple!["C.Gershag", 40]]),
        // Multi-relation set where one statement is malformed.
        RelOp::insert_set(
            StatementSet::new()
                .with("Employees", tuple!["T.Manhart", 32])
                .with("Ghost", tuple!["x"]),
        ),
    ];
    for op in invalid {
        assert!(op.apply(&state).is_err(), "{op} should be rejected");
        assert_eq!(state, rfix::figure3_state(), "{op} must not mutate input");
    }
}

#[test]
fn every_invalid_graph_op_is_rejected_cleanly() {
    let state = gfix::figure4_state();
    let bad_entity = Entity::new("employee", [("name", Atom::str("T.Manhart"))]);
    let invalid: Vec<GraphOp> = vec![
        // Existing entity.
        GraphOp::InsertEntity(Entity::new(
            "employee",
            [("name", Atom::str("T.Manhart")), ("age", Atom::int(32))],
        )),
        // Missing characteristic.
        GraphOp::InsertEntity(bad_entity),
        // Unknown type.
        GraphOp::InsertEntity(Entity::new("droid", [("name", Atom::str("R2"))])),
        // Machine without its operation association (semantic unit).
        GraphOp::InsertEntity(Entity::new(
            "machine",
            [("number", Atom::str("NZ745")), ("type", Atom::str("lathe"))],
        )),
        // Entity with live role edges.
        GraphOp::DeleteEntity(emp("G.Wayshum")),
        // Missing entity.
        GraphOp::DeleteEntity(emp("Nobody")),
        // Existing association.
        GraphOp::InsertAssociation(Association::new(
            "supervise",
            [("agent", emp("G.Wayshum")), ("object", emp("C.Gershag"))],
        )),
        // Functionality violation: second operator for NZ745.
        GraphOp::InsertAssociation(Association::new(
            "operate",
            [("agent", emp("C.Gershag")), ("object", machine("NZ745"))],
        )),
        // Totality violation: strip a machine's only operation.
        GraphOp::DeleteAssociation(Association::new(
            "operate",
            [("agent", emp("T.Manhart")), ("object", machine("NZ745"))],
        )),
        // A unit that re-inserts an existing machine.
        GraphOp::InsertUnit(SemanticUnit::new().with_entity(Entity::new(
            "machine",
            [
                ("number", Atom::str("JCL181")),
                ("type", Atom::str("press")),
            ],
        ))),
    ];
    for op in invalid {
        assert!(op.apply(&state).is_err(), "{op} should be rejected");
        assert_eq!(state, gfix::figure4_state(), "{op} must not mutate input");
    }
}

#[test]
fn every_invalid_syntactic_op_is_rejected_cleanly() {
    let codd = sfix::codd_machine_shop_state();
    for op in [
        CoddOp::insert("EMP", [tuple!["T.Manhart", 32]]), // duplicate
        CoddOp::insert("EMP", [tuple![Value::Null, 32]]), // null
        CoddOp::insert("EMP", [tuple!["G.Wayshum", 32]]), // key violation
        CoddOp::delete("EMP", [tuple!["G.Wayshum", 99]]), // absent
        CoddOp::insert("GHOST", [tuple!["x"]]),           // unknown relation
    ] {
        assert!(op.apply(&codd).is_err(), "{op} should be rejected");
        assert_eq!(codd, sfix::codd_machine_shop_state());
    }

    let dbtg = sfix::dbtg_machine_shop_state();
    let tm = dbtg
        .find("EMP", "name", &Atom::str("T.Manhart"))
        .next()
        .expect("fixture employee");
    for op in [
        DbtgOp::Erase(tm),                                // still linked
        DbtgOp::Erase(RecordId(999)),                     // missing
        DbtgOp::Modify(tm, vec![Atom::str("T.Manhart")]), // wrong arity
        DbtgOp::Store(Record::new("EMP", [Atom::str("Nobody"), Atom::int(32)])), // bad domain
        DbtgOp::Disconnect {
            set_type: "SUPERVISES".into(),
            member: tm,
        }, // not connected
    ] {
        assert!(op.apply(&dbtg).is_err(), "{op} should be rejected");
        assert_eq!(dbtg, sfix::dbtg_machine_shop_state());
    }
}

#[test]
fn multi_model_database_survives_a_barrage_of_invalid_updates() {
    let service = boot(vec![full_view(), personnel_view()]);

    let graph_attacks = vec![
        GraphOp::DeleteEntity(emp("G.Wayshum")),
        GraphOp::InsertAssociation(Association::new(
            "operate",
            [("agent", emp("C.Gershag")), ("object", machine("NZ745"))],
        )),
    ];
    let mut graph = service.open_session(SessionKind::Graph).unwrap();
    for op in &graph_attacks {
        assert!(graph.submit_graph(vec![op.clone()]).is_err());
    }
    let rel_attacks = vec![
        (
            "full",
            RelOp::insert("Operate", [tuple!["G.Wayshum", "JCL181", "press"]]),
        ),
        ("full", RelOp::insert("Ghost", [tuple!["x"]])),
        (
            "personnel",
            RelOp::insert("Supervisions", [tuple!["Nobody", "T.Manhart"]]),
        ),
        (
            "personnel",
            RelOp::delete("Employees", [tuple!["C.Gershag", 40]]),
        ),
    ];
    for (view, op) in &rel_attacks {
        let result = open(&service, view).submit_relational(op);
        assert!(result.is_err(), "{view}: {op}");
    }
    // Nothing moved, everything still consistent.
    service.verify_consistency().unwrap();
    assert_eq!(*service.conceptual(), gfix::figure4_state());
    assert_eq!(service.view_state("full").unwrap(), rfix::figure3_state());
}

/// One run of the invalid-update barrage, returning the transcript of
/// every rejection message and the final audit outcome.
fn barrage_transcript() -> Vec<String> {
    let service = boot(vec![full_view()]);
    let mut transcript = Vec::new();
    let graph_attacks = vec![
        GraphOp::DeleteEntity(emp("G.Wayshum")),
        GraphOp::InsertAssociation(Association::new(
            "operate",
            [("agent", emp("C.Gershag")), ("object", machine("NZ745"))],
        )),
        GraphOp::DeleteEntity(emp("Nobody")),
    ];
    let mut graph = service.open_session(SessionKind::Graph).unwrap();
    for op in &graph_attacks {
        let err = graph.submit_graph(vec![op.clone()]).unwrap_err();
        transcript.push(format!("{op} => {err}"));
    }
    let rel_attacks = vec![
        RelOp::insert("Operate", [tuple!["G.Wayshum", "JCL181", "press"]]),
        RelOp::insert("Ghost", [tuple!["x"]]),
        RelOp::delete("Employees", [tuple!["C.Gershag", 40]]),
    ];
    let mut full = open(&service, "full");
    for op in &rel_attacks {
        let err = full.submit_relational(op).unwrap_err();
        transcript.push(format!("{op} => {err}"));
    }
    assert_eq!(*service.conceptual(), gfix::figure4_state());
    assert_eq!(service.view_state("full").unwrap(), rfix::figure3_state());
    transcript.push(format!("audit => {:?}", service.verify_consistency()));
    transcript
}

/// Failure injection is deterministic: two in-process runs of the same
/// barrage produce identical rejection transcripts — error *messages*
/// included, so diagnostics can be asserted on and diffed.
#[test]
fn failure_barrage_is_deterministic() {
    let first = barrage_transcript();
    let second = barrage_transcript();
    assert_eq!(first, second, "rejection transcripts diverged");
    assert_eq!(first.len(), 7);
    assert!(first.last().unwrap().contains("Ok"), "audit stays green");
}

#[test]
fn personnel_delete_of_supervising_employee_is_rejected() {
    // Deleting G.Wayshum through the personnel view: the view itself
    // still asserts the supervision (subset constraint) — error, and the
    // conceptual model is untouched.
    let service = boot(vec![personnel_view()]);
    let mut personnel = open(&service, "personnel");
    let op = RelOp::delete("Employees", [tuple!["G.Wayshum", 50]]);
    assert!(personnel.submit_relational(&op).is_err());
    service.verify_consistency().unwrap();
    assert_eq!(*service.conceptual(), gfix::figure4_state());

    // Denying the supervision in the same statement set succeeds and
    // cascades correctly everywhere.
    let op = RelOp::delete_set(
        StatementSet::new()
            .with("Employees", tuple!["G.Wayshum", 50])
            .with("Supervisions", tuple!["G.Wayshum", "C.Gershag"]),
    );
    personnel.submit_relational(&op).unwrap().expect_commit();
    service.verify_consistency().unwrap();
    assert!(service.conceptual().entity(&emp("G.Wayshum")).is_none());
}
