//! Conformance and stress suite for the networked front door.
//!
//! The claim under test is **wire parity**: driving the sharded session
//! service through the full network path — typed requests, CRC framing,
//! the duplex transport, per-shard dispatchers — commits exactly the
//! schedules the in-process service would, and the committed schedule
//! still satisfies every sequential oracle from `service_conformance`:
//!
//! 1. replaying the committed history with `GraphOp::apply_all`
//!    reproduces the service's final conceptual state;
//! 2. every external view, replayed through `ExternalView`, matches the
//!    served view state and satisfies Definition 2;
//! 3. recovery from the durable image (merging all shard logs) rebuilds
//!    the same state.
//!
//! On top of parity the suite stresses the service qua *service*:
//! admission control sheds with a typed `Overloaded` under a full lane,
//! ten thousand concurrent sessions multiplex over a handful of
//! connections without deadlock or a dropped frame, and a shared
//! [`WriteBudget`] crash matrix checks that every transaction
//! acknowledged over the wire survives sharded recovery.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use borkin_equiv::ansi::ExternalView;
use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::GraphOp;
use borkin_equiv::obs::{Observer, RingSink};
use borkin_equiv::server::{
    CommitOutcome, MemDevice, NetServer, ServerError, ServiceConfig, SessionKind, SessionService,
    ViewSpec, WriteBudget,
};
use borkin_equiv::storage::wal;
use borkin_equiv::workload::{self, SessionStream, ShopConfig};

const SHARDS: usize = 4;

/// One generated schedule: everything needed to re-run it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ScheduleSpec {
    seed: u64,
    sessions: usize,
    ops_each: usize,
    per_op_commit: bool,
    lockstep_verify: bool,
}

fn shop_cfg(seed: u64) -> ShopConfig {
    ShopConfig {
        employees: 6,
        machines: 3,
        supervisions: 4,
        seed,
    }
}

fn views(cfg: ShopConfig) -> Vec<ViewSpec> {
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
}

fn mem_wals(n: usize) -> Vec<Box<dyn borkin_equiv::server::LogDevice>> {
    (0..n)
        .map(|_| Box::new(MemDevice::new()) as Box<dyn borkin_equiv::server::LogDevice>)
        .collect()
}

/// Failure post-mortem for this suite: the merged telemetry snapshot
/// (global counters + every shard lane) and one dump per shard lane,
/// all under `target/flight/` — the directory CI ships as an artifact
/// when a leg fails.
fn dump_observability(service: &SessionService, test: &str) {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("flight");
    let _ = std::fs::create_dir_all(&dir);
    let snap = service.telemetry_snapshot();
    let _ = std::fs::write(
        dir.join(format!("service_network_{test}.metrics.json")),
        snap.to_json(),
    );
    for (i, shard) in snap.shards.iter().enumerate() {
        let mut out = format!(
            "{{\"shard\":{i},\"lane_depth\":{},\"counters\":{{",
            shard.lane_depth
        );
        for (j, (c, v)) in shard.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", c.name()));
        }
        out.push_str("},\"metrics\":{");
        for (j, (m, h)) in shard.metrics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                m.name(),
                h.count,
                h.p50(),
                h.p99(),
                h.max
            ));
        }
        out.push_str("}}");
        let _ = std::fs::write(
            dir.join(format!("service_network_{test}.shard{i}.json")),
            out,
        );
    }
}

/// Dumps the service's observability plane iff the owning test panics:
/// hold one for the duration of a test and every failing leg leaves its
/// post-mortem under `target/flight/`.
struct DumpOnFailure {
    service: SessionService,
    test: &'static str,
}

impl Drop for DumpOnFailure {
    fn drop(&mut self) {
        if std::thread::panicking() {
            dump_observability(&self.service, self.test);
        }
    }
}

/// Runs one schedule through the network path and checks every
/// conformance property. `Err` carries a human-readable violation, and
/// a violating run leaves its metrics + per-shard dumps under
/// `target/flight/` for the CI artifact.
fn run_schedule_networked(spec: ScheduleSpec) -> Result<(), String> {
    let cfg = shop_cfg(spec.seed);
    let initial = workload::graph_state(cfg);
    let config = ServiceConfig {
        max_batch: if spec.per_op_commit {
            1
        } else {
            ServiceConfig::default().max_batch
        },
        lockstep_verify: spec.lockstep_verify,
        shards: SHARDS,
        ..ServiceConfig::default()
    };
    let service = SessionService::new_sharded(
        initial.clone(),
        views(cfg),
        config,
        mem_wals(SHARDS),
        Box::new(MemDevice::new()),
    )
    .map_err(|e| format!("boot: {e}"))?;
    let result = drive_and_check(spec, cfg, &initial, &service);
    if result.is_err() {
        dump_observability(&service, "schedule");
    }
    result
}

/// The schedule driver + oracle checks behind `run_schedule_networked`.
fn drive_and_check(
    spec: ScheduleSpec,
    cfg: ShopConfig,
    initial: &borkin_equiv::graph::GraphState,
    service: &SessionService,
) -> Result<(), String> {
    let server = NetServer::serve(service.clone());
    let client = server.connect().map_err(|e| format!("connect: {e}"))?;

    let streams = workload::session_streams(cfg, spec.sessions, spec.ops_each);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, stream) in streams.iter().enumerate() {
            let client = client.clone();
            let failures = &failures;
            scope.spawn(move || {
                let fail =
                    |msg: String| failures.lock().unwrap().push(format!("session {i}: {msg}"));
                match stream {
                    SessionStream::Graph { ops } => {
                        let sess = match client.open_session(SessionKind::Graph) {
                            Ok(s) => s,
                            Err(e) => return fail(format!("open: {e}")),
                        };
                        for op in ops {
                            // Aborts are legitimate under interleaving;
                            // the conformance claim is about what
                            // *committed*. Transport faults are not.
                            if let Err(ServerError::Protocol(p)) =
                                sess.submit_graph(vec![op.clone()])
                            {
                                return fail(format!("transport: {p}"));
                            }
                        }
                        if let Err(e) = sess.close() {
                            fail(format!("close: {e}"));
                        }
                    }
                    SessionStream::Relational { view, ops } => {
                        let sess = match client
                            .open_session(SessionKind::Relational { view: view.clone() })
                        {
                            Ok(s) => s,
                            Err(e) => return fail(format!("open: {e}")),
                        };
                        for op in ops {
                            if let Err(ServerError::Protocol(p)) =
                                sess.submit_relational(op.clone())
                            {
                                return fail(format!("transport: {p}"));
                            }
                        }
                        if let Err(e) = sess.close() {
                            fail(format!("close: {e}"));
                        }
                    }
                }
            });
        }
    });
    drop(client);
    server.shutdown();
    let failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if service.open_sessions() != 0 {
        return Err(format!(
            "{} sessions still open after teardown",
            service.open_sessions()
        ));
    }

    // Oracle 1: sequential replay of the committed schedule.
    let history = service.committed_history();
    let mut oracle = initial.clone();
    for txn in &history {
        oracle = GraphOp::apply_all(&txn.ops, &oracle).map_err(|e| {
            format!(
                "committed txn lsn {} does not replay sequentially: {e}",
                txn.lsn
            )
        })?;
    }
    if *service.conceptual() != oracle {
        return Err("final conceptual state != sequential replay of committed schedule".into());
    }
    oracle
        .validate()
        .map_err(|e| format!("committed state violates the conceptual schema: {e}"))?;

    // Oracle 2: every view through the sequential view machinery.
    for vs in views(cfg) {
        let mut view = ExternalView::materialize(&vs.name, vs.schema, initial, vs.mode)
            .map_err(|e| format!("oracle materialize {}: {e}", vs.name))?;
        let mut cursor = initial.clone();
        for txn in &history {
            view.apply_conceptual(&txn.ops, &cursor)
                .map_err(|e| format!("oracle replay into {}: {e}", vs.name))?;
            cursor = GraphOp::apply_all(&txn.ops, &cursor).expect("already replayed once");
        }
        let served = service
            .view_state(&vs.name)
            .ok_or_else(|| format!("service lost view {}", vs.name))?;
        if view.state() != &served {
            return Err(format!(
                "view {} diverged from its sequential replay",
                vs.name
            ));
        }
        if !view.consistent_with(&oracle) {
            return Err(format!(
                "view {} violates Definition 2 against the final conceptual state",
                vs.name
            ));
        }
    }

    // Oracle 3: sharded recovery from the durable image agrees with the
    // live service.
    let (recovered, report) = SessionService::recover_sharded(
        Arc::clone(oracle.schema()),
        &service.durable_image(),
        views(cfg),
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
        mem_wals(SHARDS),
        Box::new(MemDevice::new()),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    if *recovered.conceptual() != oracle {
        return Err("recovered conceptual state != committed state".into());
    }
    if report.replayed != history.len() {
        return Err(format!(
            "recovery replayed {} of {} committed transactions",
            report.replayed,
            history.len()
        ));
    }
    Ok(())
}

/// Greedy delta-debugging over schedule specs, as in
/// `service_conformance`: shrink sessions, then ops per session.
fn minimize_spec<F: Fn(ScheduleSpec) -> bool>(mut spec: ScheduleSpec, fails: F) -> ScheduleSpec {
    loop {
        let mut shrunk = false;
        while spec.sessions > 1 {
            let candidate = ScheduleSpec {
                sessions: spec.sessions - 1,
                ..spec
            };
            if fails(candidate) {
                spec = candidate;
                shrunk = true;
            } else {
                break;
            }
        }
        while spec.ops_each > 1 {
            let candidate = ScheduleSpec {
                ops_each: spec.ops_each - 1,
                ..spec
            };
            if fails(candidate) {
                spec = candidate;
                shrunk = true;
            } else {
                break;
            }
        }
        if !shrunk {
            return spec;
        }
    }
}

fn reproduces(spec: ScheduleSpec) -> bool {
    (0..3).any(|_| run_schedule_networked(spec).is_err())
}

fn record_regression(spec: ScheduleSpec, violation: &str) {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("proptest-regressions");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("service_network.txt"))
    {
        let _ = writeln!(f, "# {violation}");
        let _ = writeln!(
            f,
            "seed={} sessions={} ops_each={} per_op_commit={} lockstep_verify={}",
            spec.seed, spec.sessions, spec.ops_each, spec.per_op_commit, spec.lockstep_verify
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 generated interleaved schedules, each driven end to end
    /// through the wire API against a 4-shard service, each checked
    /// against the sequential oracle; failures are minimized first.
    #[test]
    fn networked_schedules_conform_to_the_sequential_oracle(
        seed in 0u64..1_000_000,
        sessions in 2usize..=5,
        ops_each in 1usize..=4,
        per_op_commit in 0u32..2,
        lockstep_verify in 0u32..2,
    ) {
        let spec = ScheduleSpec {
            seed,
            sessions,
            ops_each,
            per_op_commit: per_op_commit == 1,
            lockstep_verify: lockstep_verify == 1,
        };
        if let Err(violation) = run_schedule_networked(spec) {
            let minimal = minimize_spec(spec, reproduces);
            record_regression(minimal, &violation);
            prop_assert!(
                false,
                "networked schedule violates conformance: {violation}\n  \
                 minimal failing spec: {minimal:?}"
            );
        }
    }
}

/// A deterministic smoke case pinning the networked oracle end to end.
/// The first spec is the schedule that once deadlocked server teardown
/// (a parked reader future leaked its dispatcher queue senders when the
/// executor dropped), kept as a regression anchor.
#[test]
fn fixed_networked_schedule_conforms() {
    run_schedule_networked(ScheduleSpec {
        seed: 827419,
        sessions: 3,
        ops_each: 4,
        per_op_commit: false,
        lockstep_verify: false,
    })
    .unwrap();
    run_schedule_networked(ScheduleSpec {
        seed: 42,
        sessions: 5,
        ops_each: 4,
        per_op_commit: false,
        lockstep_verify: false,
    })
    .unwrap();
    run_schedule_networked(ScheduleSpec {
        seed: 43,
        sessions: 4,
        ops_each: 3,
        per_op_commit: true,
        lockstep_verify: true,
    })
    .unwrap();
}

/// Admission control end to end: a single slow lane with a one-deep
/// queue sheds concurrent wire submissions with a *typed* `Overloaded`
/// — every request gets a response, nothing blocks, and the service
/// stays live afterwards.
#[test]
fn a_full_lane_sheds_typed_overloads_over_the_wire() {
    const CALLERS: usize = 12;
    let cfg = shop_cfg(7);
    let obs = Observer::new(RingSink::with_capacity(1024));
    let service = SessionService::new_sharded(
        workload::graph_state(cfg),
        views(cfg),
        ServiceConfig {
            shards: 1,
            queue_depth: 1,
            obs,
            ..ServiceConfig::default()
        },
        vec![Box::new(
            MemDevice::new().with_sync_delay(Duration::from_millis(80)),
        )],
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let server = NetServer::serve(service.clone());
    let client = server.connect().unwrap();

    // Open the sessions *before* the stampede: opens don't touch the
    // lane, so they admit instantly.
    let sessions: Vec<_> = (0..CALLERS)
        .map(|_| client.open_session(SessionKind::Graph).unwrap())
        .collect();
    let ops = workload::supervision_toggle_ops(cfg, CALLERS);
    let barrier = Barrier::new(CALLERS);
    let shed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (sess, op) in sessions.iter().zip(&ops) {
            let (barrier, shed, answered) = (&barrier, &shed, &answered);
            scope.spawn(move || {
                barrier.wait();
                // Commit, abort, or shed — every one is a *typed*
                // response; only a transport fault would be a bug.
                match sess.submit_graph(vec![op.clone()]) {
                    Ok(outcome) if outcome.is_shed() => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(ServerError::Protocol(p)) => panic!("transport fault: {p}"),
                    Err(_) => {}
                }
                answered.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(
        answered.load(Ordering::Relaxed),
        CALLERS,
        "no dropped frames"
    );
    let shed = shed.load(Ordering::Relaxed);
    assert!(
        shed >= 1,
        "a one-deep lane under {CALLERS} concurrent submits must shed"
    );
    assert!(
        shed < CALLERS,
        "admission control must still admit the leader"
    );
    // The shed count is visible in the service's own telemetry...
    let metrics = client.metrics(false).unwrap();
    assert!(
        metrics.contains("requests_shed"),
        "shed counter is exported: {metrics}"
    );
    // ...and the lane drains: a fresh submission commits. Any of the
    // stampede's toggles may have committed, so the drain toggles
    // `ops[0]`'s association against the current state: insert it if
    // absent, delete it if present.
    let assoc = match &ops[0] {
        GraphOp::InsertAssociation(a) | GraphOp::DeleteAssociation(a) => a.clone(),
        other => panic!("a supervision toggle, not {other:?}"),
    };
    let toggle = if service.conceptual().has_association(&assoc) {
        GraphOp::DeleteAssociation(assoc)
    } else {
        GraphOp::InsertAssociation(assoc)
    };
    let sess = client.open_session(SessionKind::Graph).unwrap();
    let outcome = sess.submit_graph(vec![toggle]).unwrap();
    assert!(!outcome.is_shed(), "the drained lane admits again");
    for sess in sessions {
        sess.close().unwrap();
    }
    sess.close().unwrap();
    drop(client);
    server.shutdown();
}

/// Scale acceptance: ten thousand concurrent sessions over four shards,
/// multiplexed over four connections, with live traffic in the middle —
/// no deadlock, no dropped frame, and a clean global teardown.
#[test]
fn ten_thousand_sessions_multiplex_over_four_shards() {
    const SESSIONS: usize = 10_000;
    const OPENERS: usize = 16;
    let cfg = shop_cfg(11);
    let service = SessionService::new_sharded(
        workload::graph_state(cfg),
        views(cfg),
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
        mem_wals(SHARDS),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let server = NetServer::serve(service.clone());
    let clients: Vec<_> = (0..4).map(|_| server.connect().unwrap()).collect();

    // Phase 1: open 10⁴ sessions from 16 threads over 4 connections.
    let sessions = Mutex::new(Vec::with_capacity(SESSIONS));
    std::thread::scope(|scope| {
        for t in 0..OPENERS {
            let clients = &clients;
            let sessions = &sessions;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(SESSIONS / OPENERS);
                for _ in 0..SESSIONS / OPENERS {
                    let client = &clients[t % clients.len()];
                    mine.push(client.open_session(SessionKind::Graph).unwrap());
                }
                sessions.lock().unwrap().append(&mut mine);
            });
        }
    });
    let sessions = sessions.into_inner().unwrap();
    assert_eq!(sessions.len(), SESSIONS);
    assert_eq!(service.open_sessions(), SESSIONS as u64);

    // Phase 2: traffic on a spread of the open sessions, all shards.
    let ops = workload::supervision_toggle_ops(cfg, 64);
    let committed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (i, op) in ops.iter().enumerate() {
            let sess = &sessions[i * (SESSIONS / ops.len())];
            let committed = &committed;
            scope.spawn(move || {
                match sess.submit_graph(vec![op.clone()]) {
                    Ok(CommitOutcome::Committed(_)) | Ok(CommitOutcome::Retried { .. }) => {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(CommitOutcome::Shed { .. }) => {}
                    Err(ServerError::Protocol(p)) => panic!("transport fault: {p}"),
                    Err(_) => {}
                }
                sess.refresh().unwrap();
            });
        }
    });
    assert_eq!(
        service.committed_history().len(),
        committed.load(Ordering::Relaxed),
        "every wire ack corresponds to exactly one committed transaction"
    );

    // Phase 3: close all ten thousand and tear the server down.
    let mut batches: Vec<Vec<_>> = (0..OPENERS).map(|_| Vec::new()).collect();
    for (i, sess) in sessions.into_iter().enumerate() {
        batches[i % OPENERS].push(sess);
    }
    std::thread::scope(|scope| {
        for batch in batches {
            scope.spawn(move || {
                for sess in batch {
                    sess.close().unwrap();
                }
            });
        }
    });
    assert_eq!(service.open_sessions(), 0, "global teardown is clean");
    drop(clients);
    server.shutdown();
}

/// Tentpole acceptance: a transaction spanning several of four shard
/// lanes resolves — over the wire, via `TraceLookup` — to *one*
/// stitched causal tree carrying a `server/wal_append` span from every
/// involved shard.
#[test]
fn a_cross_shard_transaction_resolves_to_one_stitched_tree_over_the_wire() {
    use borkin_equiv::graph::{Association, EntityRef};
    use borkin_equiv::server::shard::shard_of;
    use borkin_equiv::value::Atom;

    let cfg = ShopConfig {
        employees: 24,
        machines: 2,
        supervisions: 0,
        seed: 29,
    };
    let service = SessionService::new_sharded(
        workload::graph_state(cfg),
        Vec::new(),
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
        mem_wals(SHARDS),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let _post_mortem = DumpOnFailure {
        service: service.clone(),
        test: "trace_lookup",
    };
    let server = NetServer::serve(service.clone());
    let client = server.connect().unwrap();
    let sess = client.open_session(SessionKind::Graph).unwrap();

    // One transaction of supervisions between employees chosen to land
    // on all four lanes, so its WAL frames fan out maximally.
    let employee = |i: usize| EntityRef::new("employee", Atom::str(format!("E{i:05}")));
    let mut picked: Vec<usize> = Vec::new();
    let mut lanes_seen: Vec<usize> = Vec::new();
    for i in 0..cfg.employees {
        let lane = shard_of(&employee(i), SHARDS);
        if !lanes_seen.contains(&lane) {
            lanes_seen.push(lane);
            picked.push(i);
            if lanes_seen.len() == SHARDS {
                break;
            }
        }
    }
    assert_eq!(
        lanes_seen.len(),
        SHARDS,
        "two dozen employees cover all four lanes"
    );
    let ops: Vec<GraphOp> = picked
        .chunks_exact(2)
        .map(|pair| {
            GraphOp::InsertAssociation(Association::new(
                "supervise",
                [("agent", employee(pair[0])), ("object", employee(pair[1]))],
            ))
        })
        .collect();
    let info = sess.submit_graph(ops).unwrap().expect_commit();

    // The wire lookup returns one tree, rooted once, with the admit →
    // verify → group_commit → wal_append → reply path intact and a
    // wal_append span on every one of the four lanes.
    let tree = client.trace_lookup(info.trace.as_u64()).unwrap();
    let mut involved = lanes_seen.clone();
    involved.sort_unstable();
    let shard_list = involved
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    assert!(
        tree.contains(&format!("\"shards\":[{shard_list}]")),
        "tree spans every involved shard: {tree}"
    );
    assert_eq!(
        tree.matches("\"name\":\"server/wal_append\"").count(),
        SHARDS,
        "one journal span per involved lane: {tree}"
    );
    for step in [
        "server/admit",
        "server/verify",
        "server/group_commit",
        "server/reply",
    ] {
        assert_eq!(
            tree.matches(&format!("\"name\":\"{step}\"")).count(),
            1,
            "exactly one {step} span: {tree}"
        );
    }
    assert!(
        tree.starts_with(&format!("{{\"trace\":\"{}\"", info.trace)),
        "tree is keyed by the transaction's trace id: {tree}"
    );
    // A lookup that misses is an answer, not a protocol failure.
    let miss = client.trace_lookup(0xDEAD_BEEF).unwrap();
    assert!(miss.contains("unknown trace"), "miss is typed: {miss}");

    sess.close().unwrap();
    drop(client);
    server.shutdown();
}

/// Tentpole acceptance: `WatchMetrics` streams consecutive delta
/// snapshots over the same multiplexed connection that is carrying
/// live commit traffic — at least three deltas arrive while ordinary
/// request/response calls keep answering in between.
#[test]
fn watch_metrics_streams_deltas_over_a_loaded_multiplexed_connection() {
    use std::sync::atomic::AtomicBool;

    let cfg = shop_cfg(31);
    let service = SessionService::new_sharded(
        workload::graph_state(cfg),
        views(cfg),
        ServiceConfig {
            shards: SHARDS,
            obs: Observer::new(RingSink::with_capacity(1024)),
            ..ServiceConfig::default()
        },
        mem_wals(SHARDS),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let _post_mortem = DumpOnFailure {
        service: service.clone(),
        test: "watch_metrics",
    };
    let server = NetServer::serve(service.clone());
    let client = server.connect().unwrap();
    let watch = client.watch_metrics(20).unwrap();

    let stop = AtomicBool::new(false);
    let deltas = std::thread::scope(|scope| {
        // Load: one session hammers toggles on the same connection the
        // subscription is streaming over.
        let loader = scope.spawn(|| {
            let sess = client.open_session(SessionKind::Graph).unwrap();
            let ops = workload::supervision_toggle_ops(cfg, 8);
            let mut committed = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Toggles alternate insert/delete; under this serial
                // session every other one commits. Aborts are fine —
                // they are traffic too.
                if let Ok(outcome) = sess.submit_graph(vec![ops[i % ops.len()].clone()]) {
                    if outcome.info().is_some() {
                        committed += 1;
                    }
                }
                i += 1;
            }
            sess.close().unwrap();
            committed
        });
        let mut deltas = Vec::new();
        for _ in 0..3 {
            deltas.push(watch.recv_blocking().expect("the stream stays live"));
        }
        // Mid-stream, the same connection still answers plain calls.
        let metrics = client.metrics(true).unwrap();
        assert!(
            metrics.contains("\"shards\":["),
            "request/response keeps working mid-stream: {metrics}"
        );
        stop.store(true, Ordering::Relaxed);
        let committed = loader.join().unwrap();
        assert!(committed > 0, "the load actually committed transactions");
        deltas
    });

    // Three *consecutive* deltas: each is a well-formed snapshot delta,
    // and across the streamed window the commit counter moved.
    let committed_in = |delta: &str| -> u64 {
        delta
            .split("\"txns_committed\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("delta carries the commit counter: {delta}"))
    };
    let mut streamed = 0u64;
    for delta in &deltas {
        assert!(
            delta.starts_with('{') && delta.ends_with('}'),
            "delta is a JSON object: {delta}"
        );
        assert!(
            delta.contains("\"counters\":{"),
            "delta carries counters: {delta}"
        );
        streamed += committed_in(delta);
    }
    assert!(
        streamed > 0,
        "the streamed deltas saw commits happen: {deltas:?}"
    );
    // The pusher's own throughput shows up in the merged telemetry.
    let snap = service.telemetry_snapshot();
    let pushed = snap
        .counters
        .iter()
        .find(|(c, _)| c.name() == "metrics_deltas_streamed")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(pushed >= 3, "the service counted its own pushes: {pushed}");

    drop(watch);
    drop(client);
    server.shutdown();
}

/// Crash matrix over a *shared* write budget: four shard journals draw
/// from one cross-device byte budget, so the crash lands on whichever
/// lane happens to sync when the budget trips — a different shard (or
/// mid-frame offset) per budget. The durability claim is absolute:
/// every transaction *acknowledged over the wire* before the crash is
/// in some shard's clean prefix, and sharded recovery rebuilds a valid
/// state containing all of them.
#[test]
fn shared_budget_crashes_never_lose_an_acked_transaction() {
    let cfg = shop_cfg(23);
    let mut crashes = 0;
    for budget_bytes in [64usize, 512, 2048, 1 << 20] {
        let budget = WriteBudget::new(budget_bytes);
        let wals: Vec<Box<dyn borkin_equiv::server::LogDevice>> = (0..SHARDS)
            .map(|_| {
                Box::new(MemDevice::new().with_budget(Arc::clone(&budget)))
                    as Box<dyn borkin_equiv::server::LogDevice>
            })
            .collect();
        let service = SessionService::new_sharded(
            workload::graph_state(cfg),
            views(cfg),
            ServiceConfig {
                shards: SHARDS,
                ..ServiceConfig::default()
            },
            wals,
            Box::new(MemDevice::new()),
        )
        .unwrap();
        let server = NetServer::serve(service.clone());
        let client = server.connect().unwrap();

        let ops = workload::supervision_toggle_ops(cfg, 32);
        let acked = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for chunk in ops.chunks(8) {
                let client = client.clone();
                let acked = &acked;
                scope.spawn(move || {
                    // After the budget trips the whole service is down,
                    // including admission — a failed open is expected.
                    let Ok(sess) = client.open_session(SessionKind::Graph) else {
                        return;
                    };
                    for op in chunk {
                        match sess.submit_graph(vec![op.clone()]) {
                            Ok(outcome) => {
                                if let Some(info) = outcome.info() {
                                    acked.lock().unwrap().push(info.lsn);
                                }
                            }
                            Err(ServerError::Crashed(_)) => break,
                            Err(ServerError::Protocol(p)) => panic!("transport fault: {p}"),
                            Err(_) => {}
                        }
                    }
                    // After a crash the close itself fails; either way
                    // the response must arrive.
                    let _ = sess.close();
                });
            }
        });
        drop(client);
        server.shutdown();
        if budget.tripped() {
            crashes += 1;
        }
        let acked = acked.into_inner().unwrap();

        // Durability: every acked LSN is in some shard's clean prefix.
        let image = service.durable_image();
        let mut durable: Vec<u64> = image
            .wals()
            .flat_map(|bytes| wal::replay_tolerant(bytes).0)
            .map(|r| r.lsn)
            .collect();
        durable.sort_unstable();
        for lsn in &acked {
            assert!(
                durable.binary_search(lsn).is_ok(),
                "acked lsn {lsn} missing from every shard's clean prefix \
                 (budget {budget_bytes})"
            );
        }

        // Recovery rebuilds a valid state that replayed ≥ the acked set.
        let (recovered, report) = SessionService::recover_sharded(
            Arc::clone(service.conceptual().schema()),
            &image,
            views(cfg),
            ServiceConfig {
                shards: SHARDS,
                ..ServiceConfig::default()
            },
            mem_wals(SHARDS),
            Box::new(MemDevice::new()),
        )
        .unwrap_or_else(|e| panic!("recovery after budget {budget_bytes} crash: {e}"));
        recovered
            .conceptual()
            .validate()
            .unwrap_or_else(|e| panic!("recovered state invalid (budget {budget_bytes}): {e}"));
        assert!(
            report.replayed >= acked.len(),
            "recovery replayed {} < {} acked transactions (budget {budget_bytes})",
            report.replayed,
            acked.len()
        );
        for vs in views(cfg) {
            assert!(
                recovered.view_state(&vs.name).is_some(),
                "recovered service lost view {}",
                vs.name
            );
        }
    }
    assert!(
        crashes >= 1,
        "the matrix must include at least one real crash"
    );
    assert!(crashes < 4, "the largest budget must survive untripped");
}
