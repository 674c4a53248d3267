//! The machine shop as a live multi-model service.
//!
//! Boots the concurrent session service over the scaled machine-shop
//! conceptual database with two external views — the full `"shop"`
//! relational model and the §1.2 `"personnel"` subset — then:
//!
//! 1. runs graph-speaking and relational-speaking sessions concurrently
//!    (group commit through the journal, optimistic retry on conflict),
//! 2. crashes the service by tearing the journal mid-record and
//!    recovers to the last committed transaction,
//! 3. prints the observation report of every service phase
//!    (admit → translate → commit → recover),
//! 4. serves the telemetry exporters over the admin wire codec: the
//!    Prometheus-style text rendering and the single-line JSON
//!    snapshot, both with commit-latency percentiles.
//!
//! Run with: `cargo run --release --example shop_service`

use std::sync::Arc;

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::obs::{Counter, Observer, Report, RingSink};
use borkin_equiv::relation::display::render_relation;
use borkin_equiv::server::wire::{Request, Response};
use borkin_equiv::server::{
    AdminRequest, MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec,
};
use borkin_equiv::workload::{self, SessionStream, ShopConfig};

fn main() {
    let cfg = ShopConfig {
        employees: 6,
        machines: 3,
        supervisions: 4,
        seed: 2026,
    };
    let initial = workload::graph_state(cfg);
    let views = || {
        vec![
            ViewSpec {
                name: "shop".into(),
                schema: workload::relational_schema(cfg),
                mode: CompletionMode::Minimal,
            },
            ViewSpec {
                name: "personnel".into(),
                schema: workload::personnel_schema(cfg),
                mode: CompletionMode::Minimal,
            },
        ]
    };

    let ring = RingSink::with_capacity(8192);
    let obs = Observer::new(ring.clone());
    let service = SessionService::new(
        initial.clone(),
        views(),
        ServiceConfig {
            checkpoint_every: 4,
            obs: obs.clone(),
            ..ServiceConfig::default()
        },
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .expect("service boots");

    // ── Concurrent sessions: three models of the same database ────────
    println!("== concurrent sessions ==");
    let streams = workload::session_streams(cfg, 6, 4);
    std::thread::scope(|scope| {
        for (i, stream) in streams.iter().enumerate() {
            let service = service.clone();
            scope.spawn(move || {
                let (kind, label) = match stream {
                    SessionStream::Graph { .. } => (SessionKind::Graph, "graph".to_string()),
                    SessionStream::Relational { view, .. } => (
                        SessionKind::Relational { view: view.clone() },
                        format!("relational/{view}"),
                    ),
                };
                let mut sess = service.open_session(kind).expect("session admits");
                let (mut committed, mut rejected) = (0usize, 0usize);
                match stream {
                    SessionStream::Graph { ops } => {
                        for op in ops {
                            match sess.submit_graph(vec![op.clone()]) {
                                Ok(_) => committed += 1,
                                Err(_) => rejected += 1,
                            }
                        }
                    }
                    SessionStream::Relational { ops, .. } => {
                        for op in ops {
                            match sess.submit_relational(op) {
                                Ok(outcome) if outcome.info().is_some_and(|i| i.attempts > 1) => {
                                    let info = outcome.expect_commit();
                                    println!(
                                        "  session {i} ({label}): committed lsn {} after \
                                         {} attempts (conflict retry)",
                                        info.lsn, info.attempts
                                    );
                                    committed += 1;
                                }
                                Ok(_) => committed += 1,
                                Err(_) => rejected += 1,
                            }
                        }
                    }
                }
                sess.close().expect("graceful teardown");
                println!("  session {i} ({label}): {committed} committed, {rejected} rejected");
            });
        }
    });
    println!(
        "committed {} transactions in {} group commits ({} journal syncs, \
         {} conflicts retried)",
        service.committed_history().len(),
        obs.counter(Counter::GroupCommits),
        service.wal_syncs(),
        obs.counter(Counter::TxnConflicts),
    );
    let personnel = service.view_state("personnel").expect("view exists");
    println!("\npersonnel view after the session mix:");
    print!(
        "{}",
        render_relation(&personnel, "Supervisions").expect("relation exists")
    );

    // ── Crash: tear the journal mid-record, then recover ───────────────
    println!("\n== crash and recovery ==");
    let mut image = service.durable_image();
    let torn = image.wal.len().saturating_sub(7);
    image.wal.truncate(torn);
    println!(
        "tearing the journal at byte {torn} of {} (mid-record)",
        torn + 7
    );
    let (recovered, report) = SessionService::recover(
        Arc::clone(initial.schema()),
        &image,
        views(),
        ServiceConfig {
            obs: obs.clone(),
            ..ServiceConfig::default()
        },
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .expect("recovery succeeds");
    println!(
        "recovered from checkpoint lsn {} + {} replayed transactions \
         (torn WAL tail: {}, torn checkpoint tail: {})",
        report.checkpoint_lsn,
        report.replayed,
        report.wal_tail.is_some(),
        report.checkpoint_tail.is_some()
    );
    println!(
        "recovered service serves {} views ({} commits since recovery)",
        recovered.view_names().len(),
        recovered.version()
    );

    // ── The phase report ───────────────────────────────────────────────
    println!("\n== service phase report ==");
    let report = Report::from_events(&ring.events()).with_totals(obs.counters());
    println!("{report}");

    // ── Telemetry over the typed wire API ──────────────────────────────
    // Both renderings are served through the single typed front door —
    // the same path a scraper or dashboard would use (the legacy
    // one-byte admin codec still tunnels through `Request::Admin`). The
    // recovered service shares the observer, so its counters fold the
    // pre-crash sessions and the recovery replay together.
    let metrics = |json: bool| match recovered.handle(Request::Metrics { json }) {
        Response::Metrics { body } => body,
        other => panic!("metrics request answered with {other:?}"),
    };
    println!("== telemetry over the wire (Prometheus text) ==");
    print!("{}", metrics(false));
    println!("\n== telemetry over the wire (JSON snapshot) ==");
    println!("{}", metrics(true));
    match recovered.handle(Request::Admin {
        body: AdminRequest::MetricsText.encode(),
    }) {
        Response::Admin { .. } => println!("(legacy admin envelope still answers)"),
        other => panic!("admin tunnel answered with {other:?}"),
    }
}
