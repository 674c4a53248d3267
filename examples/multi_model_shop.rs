//! The paper's conclusion, running: "the ability to support equivalent
//! relational and graph application models accessing a shared database
//! would allow the best of both worlds — a simple relational view for
//! retrieval and a graph model for updating."
//!
//! An ANSI/SPARC three-schema database with a graph conceptual model,
//! two different relational external views (the Figure 3 three-relation
//! schema and the Figure 9 single-relation schema), and an internal
//! level of MVCC versions over a write-ahead log. Updates enter at both
//! the conceptual and an external level; every level stays equivalent.
//!
//! Run with: `cargo run --example multi_model_shop`

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::fixtures as gfix;
use borkin_equiv::graph::{Association, EntityRef, GraphOp};
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::{MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec};
use borkin_equiv::value::{tuple, Atom, Value};

fn emp(name: &str) -> EntityRef {
    EntityRef::new("employee", Atom::str(name))
}

fn main() {
    // Conceptual level: the Figure 4 graph state, with two external
    // relational views of the same conceptual model — Figure 9's point
    // that several relational application models can be equivalent to
    // one graph model.
    let db = SessionService::new(
        gfix::figure4_state(),
        vec![
            ViewSpec {
                name: "three-relations".into(),
                schema: rfix::machine_shop_schema(),
                mode: CompletionMode::StateCompleted,
            },
            ViewSpec {
                name: "single-relation".into(),
                schema: rfix::figure9_schema(),
                mode: CompletionMode::Minimal,
            },
        ],
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .expect("database initializes");
    let mut graph = db.open_session(SessionKind::Graph).expect("graph session");
    let mut three = db
        .open_session(SessionKind::Relational {
            view: "three-relations".into(),
        })
        .expect("relational session");

    println!("Views registered: {:?}\n", db.view_names());
    println!(
        "three-relations view:\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("three-relations").unwrap())
    );
    println!(
        "single-relation view (Figure 9):\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("single-relation").unwrap())
    );

    // ── Update through the graph model ───────────────────────────────────
    let op = GraphOp::InsertAssociation(Association::new(
        "supervise",
        [("agent", emp("G.Wayshum")), ("object", emp("T.Manhart"))],
    ));
    println!("Conceptual update: {op}");
    graph
        .submit_graph(vec![op])
        .expect("valid update")
        .expect_commit();
    db.verify_consistency().expect("all levels equivalent");
    println!("→ propagated to both views and to storage; audit passed.\n");
    println!(
        "three-relations view now (Figure 7):\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("three-relations").unwrap())
    );

    // ── Update through a relational view ─────────────────────────────────
    let rel_op = RelOp::delete("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
    println!("External update on `three-relations`: {rel_op}");
    three
        .submit_relational(&rel_op)
        .expect("valid update")
        .expect_commit();
    db.verify_consistency().expect("all levels equivalent");
    assert_eq!(*db.conceptual(), gfix::figure4_state());
    println!("→ the supervision is gone at every level; back to Figure 4.\n");

    // ── Invalid updates reach the error state and change nothing ────────
    let bad = RelOp::insert("Operate", [tuple!["G.Wayshum", "JCL181", "press"]]);
    println!("Invalid external update (second operator for JCL181): {bad}");
    match three.submit_relational(&bad) {
        Err(e) => println!("→ rejected as the paper's error state: {e}"),
        Ok(_) => unreachable!("functionality constraint must reject this"),
    }
    db.verify_consistency().expect("nothing changed");
    println!("\nFinal audit passed: conceptual, internal and both external");
    println!("levels represent the same application state. ✓");
}
