//! The machine shop behind the networked front door.
//!
//! Where `shop_service` drives `SessionService` in-process, this demo
//! speaks to it the way a remote client would: through `NetServer`,
//! over the length/LSN/CRC-framed duplex transport, using the typed
//! wire protocol (`Request`/`Response`) and its client-side surface
//! (`Client`, `RemoteSession`):
//!
//! 1. boots a 4-shard service and serves it over the in-process
//!    transport,
//! 2. runs graph-speaking and relational-speaking sessions concurrently
//!    from several clients, all multiplexed over shared connections,
//! 3. provokes admission control with a commit stampede through a
//!    deliberately shallow lane queue — typed `Overloaded` responses
//!    name the refusing shard and observed depth, and the clients
//!    retry with backoff until every transaction lands,
//! 4. reads an external view and the telemetry over the same wire,
//! 5. commits one cross-shard transaction and checks that its
//!    `TraceLookup` tree equals the tree assembled from the observer's
//!    ring transcript.
//!
//! Run with: `cargo run --release --example shop_server`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::{Association, EntityRef, GraphOp};
use borkin_equiv::obs::{EventKind, Observer, RingSink, TraceAssembler};
use borkin_equiv::server::shard::shard_of;
use borkin_equiv::server::{
    CommitOutcome, LogDevice, MemDevice, NetServer, ServiceConfig, SessionKind, SessionService,
    ViewSpec,
};
use borkin_equiv::value::Atom;
use borkin_equiv::workload::{self, SessionStream, ShopConfig};

const SHARDS: usize = 4;

fn main() {
    let cfg = ShopConfig {
        employees: 6,
        machines: 3,
        supervisions: 4,
        seed: 2026,
    };
    let initial = workload::graph_state(cfg);
    let views = vec![
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
    ];

    let ring = RingSink::with_capacity(8192);
    let obs = Observer::new(ring.clone());
    let wals: Vec<Box<dyn LogDevice>> = (0..SHARDS)
        .map(|_| {
            // A visible sync cost plus a shallow queue make admission
            // control observable in step 3.
            Box::new(MemDevice::new().with_sync_delay(Duration::from_millis(2)))
                as Box<dyn LogDevice>
        })
        .collect();
    let service = SessionService::new_sharded(
        initial,
        views,
        ServiceConfig {
            shards: SHARDS,
            queue_depth: 2,
            obs: obs.clone(),
            ..ServiceConfig::default()
        },
        wals,
        Box::new(MemDevice::new()),
    )
    .expect("service boots");

    // ── Serve it: everything below goes over the wire ─────────────────
    let server = NetServer::serve(service.clone());

    // ── Concurrent sessions from several multiplexed clients ──────────
    println!("== remote sessions over {SHARDS} shards ==");
    let clients: Vec<_> = (0..3).map(|_| server.connect().expect("connect")).collect();
    let streams = workload::session_streams(cfg, 6, 4);
    // Open sequentially (admission control applies to every wire
    // request, opens included), then drive the streams concurrently.
    let opened: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            let (kind, label) = match stream {
                SessionStream::Graph { .. } => (SessionKind::Graph, "graph".to_string()),
                SessionStream::Relational { view, .. } => (
                    SessionKind::Relational { view: view.clone() },
                    format!("relational/{view}"),
                ),
            };
            let sess = clients[i % clients.len()]
                .open_session(kind)
                .expect("session admits");
            (sess, label)
        })
        .collect();
    std::thread::scope(|scope| {
        for (stream, (sess, label)) in streams.iter().zip(&opened) {
            scope.spawn(move || {
                let (mut committed, mut rejected) = (0usize, 0usize);
                match stream {
                    SessionStream::Graph { ops } => {
                        for op in ops {
                            match sess.submit_graph(vec![op.clone()]) {
                                Ok(out) if out.info().is_some() => committed += 1,
                                _ => rejected += 1,
                            }
                        }
                    }
                    SessionStream::Relational { ops, .. } => {
                        for op in ops {
                            match sess.submit_relational(op.clone()) {
                                Ok(out) if out.info().is_some() => committed += 1,
                                _ => rejected += 1,
                            }
                        }
                    }
                }
                println!(
                    "  session {} ({label}): {committed} committed, {rejected} rejected",
                    sess.id()
                );
            });
        }
    });
    // Close after the concurrent section: a close racing other lanes'
    // submits would be shed like any other wire request.
    for (sess, _) in opened {
        sess.close().expect("closing equivalence holds");
    }

    // ── Admission control: a stampede through a shallow lane queue ────
    println!("\n== typed overload handling ==");
    let shed_seen = AtomicUsize::new(0);
    let toggles = workload::supervision_toggle_ops(cfg, 16);
    // Pre-open the stampeding sessions: admission control applies to
    // *every* wire request, so opens racing the stampede would be shed
    // too.
    let stampeders: Vec<_> = (0..toggles.len())
        .map(|i| {
            clients[i % clients.len()]
                .open_session(SessionKind::Graph)
                .expect("admits")
        })
        .collect();
    std::thread::scope(|scope| {
        for (op, sess) in toggles.iter().zip(&stampeders) {
            let shed_seen = &shed_seen;
            scope.spawn(move || {
                // Submit until the transaction lands: `Overloaded` is a
                // typed admission verdict, not an error — nothing was
                // enqueued, so the client backs off and resubmits.
                let mut backoff = Duration::from_micros(500);
                loop {
                    match sess.submit_graph(vec![op.clone()]) {
                        Ok(CommitOutcome::Shed { shard, depth }) => {
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                            println!(
                                "  shard {shard} shed at depth {depth}; backing off {backoff:?}"
                            );
                            std::thread::sleep(backoff);
                            backoff = backoff.saturating_mul(2);
                        }
                        Ok(out) => {
                            out.expect_commit();
                            break;
                        }
                        Err(e) => {
                            // Toggles can legitimately conflict/abort
                            // under interleaving; that ends the session's
                            // story, shedding does not.
                            println!("  aborted: {e}");
                            break;
                        }
                    }
                }
            });
        }
    });
    for sess in stampeders {
        sess.close().expect("graceful close");
    }
    println!(
        "  {} typed Overloaded responses observed, every transaction answered",
        shed_seen.load(Ordering::Relaxed)
    );

    // ── Reads over the same wire: a view and the telemetry ────────────
    println!("\n== remote reads ==");
    let personnel = clients[0].view_state("personnel").expect("view read");
    for (name, tuples) in &personnel {
        println!("  personnel/{name}: {} tuples", tuples.len());
    }
    let text = clients[0].metrics(false).expect("metrics render");
    for line in text
        .lines()
        .filter(|l| l.contains("txns_committed") || l.contains("requests_shed"))
    {
        println!("  {line}");
    }

    // ── Cluster observability: stitching and streaming ────────────────
    println!("\n== cluster observability ==");
    // Subscribe before committing so the streamed deltas see it land.
    let watch = clients[0].watch_metrics(50).expect("subscription opens");

    // One deliberately cross-shard transaction: a supervision between
    // two employees homed on different commit lanes.
    let employee = |i: usize| EntityRef::new("employee", Atom::str(format!("E{i:05}")));
    let sess = clients[1].open_session(SessionKind::Graph).expect("admits");
    let mut committed = None;
    'pairs: for a in 0..cfg.employees {
        for b in 0..cfg.employees {
            if a == b || shard_of(&employee(a), SHARDS) == shard_of(&employee(b), SHARDS) {
                continue;
            }
            // Seeded supervisions may already hold a candidate pair (an
            // abort, not a bug) — keep probing until one commits.
            let op = GraphOp::InsertAssociation(Association::new(
                "supervise",
                [("agent", employee(a)), ("object", employee(b))],
            ));
            if let Ok(out) = sess.submit_graph(vec![op]) {
                if let Some(info) = out.info() {
                    committed = Some((info, a, b));
                    break 'pairs;
                }
            }
        }
    }
    let (info, a, b) = committed.expect("some cross-lane pair is free to supervise");
    sess.close().expect("graceful close");
    println!(
        "  committed E{a:05} -> E{b:05} across shards {} and {}",
        shard_of(&employee(a), SHARDS),
        shard_of(&employee(b), SHARDS)
    );

    // TraceLookup over the wire: the transaction's stitched causal
    // tree, with a wal_append span on every involved lane.
    let tree = clients[2]
        .trace_lookup(info.trace.as_u64())
        .expect("trace resolves");
    println!("  TraceLookup({}) ->\n    {tree}", info.trace);
    // The observer's transcript records the same steps the hub does:
    // assembled from the ring, they render the identical tree.
    let mut from_ring = TraceAssembler::new();
    for event in ring.events() {
        if let EventKind::Trace(step) = event.kind {
            if step.trace == info.trace {
                from_ring.push(step);
            }
        }
    }
    assert_eq!(from_ring.to_json(info.trace), tree);
    println!(
        "  ring transcript tree == TraceLookup tree ({} steps)",
        from_ring.len()
    );

    // Two consecutive streamed deltas from the subscription opened
    // above — the first one carries the commit we just watched land.
    for i in 0..2 {
        let delta = watch.recv_blocking().expect("stream is live");
        let brief: String = delta.chars().take(120).collect();
        println!("  delta {i}: {brief}…");
    }
    drop(watch);

    // The labelled per-shard render over the same wire.
    let text = clients[0].metrics(false).expect("metrics render");
    for line in text.lines().filter(|l| {
        l.starts_with("dme_shard_lane_depth")
            || (l.starts_with("dme_shard_counter") && l.contains("txns_committed"))
    }) {
        println!("  {line}");
    }

    drop(clients);
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
