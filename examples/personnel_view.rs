//! A subset external schema in action (§1.2's extension).
//!
//! The personnel department sees only employees and supervisions; the
//! machine floor is invisible. Updates through the view translate up to
//! the conceptual graph model — including a deletion whose conceptual
//! cascade (removing the deleted employee's machine) happens entirely
//! outside the view's vocabulary.
//!
//! Run with: `cargo run --example personnel_view`

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::fixtures as gfix;
use borkin_equiv::relation::fixtures as rfix;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::{MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec};
use borkin_equiv::value::tuple;

fn main() {
    let db = SessionService::new(
        gfix::figure4_state(),
        vec![
            ViewSpec {
                name: "shopfloor".into(),
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
    .expect("database initializes");

    println!(
        "Conceptual state (Figure 4):\n{}",
        borkin_equiv::graph::display::render_state(&db.conceptual())
    );
    println!(
        "Personnel view (subset — no machines):\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("personnel").unwrap())
    );

    // The clerk removes T.Manhart. The view knows nothing about machine
    // NZ745 — but the conceptual schema says every machine needs an
    // operator, so the semantic unit cascade removes it too.
    let op = RelOp::delete("Employees", [tuple!["T.Manhart", 32]]);
    println!("Personnel update: {op}\n");
    db.open_session(SessionKind::Relational {
        view: "personnel".into(),
    })
    .expect("personnel session")
    .submit_relational(&op)
    .expect("valid update")
    .expect_commit();
    db.verify_consistency().expect("all levels equivalent");

    println!("Conceptual state after (machine NZ745 cascaded away):");
    println!(
        "{}",
        borkin_equiv::graph::display::render_state(&db.conceptual())
    );
    println!(
        "Shop-floor view after:\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("shopfloor").unwrap())
    );
    println!(
        "Personnel view after:\n{}",
        borkin_equiv::relation::display::render_state(&db.view_state("personnel").unwrap())
    );

    assert!(db
        .conceptual()
        .entity(&borkin_equiv::graph::EntityRef::new(
            "machine",
            borkin_equiv::value::Atom::str("NZ745"),
        ))
        .is_none());
    println!("\nEvery level consistent; the cascade stayed invisible to the");
    println!("personnel view but reached the shop floor and storage. ✓");
}
