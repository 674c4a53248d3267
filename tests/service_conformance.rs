//! Property-based conformance suite for the concurrent session service.
//!
//! Each generated case is a multi-session schedule: N sessions — graph
//! sessions speaking conceptual operations, relational sessions
//! speaking against the full `"shop"` view or the §1.2 `"personnel"`
//! subset view — submit their scripted streams concurrently. The
//! **oracle** is the sequential machinery the service is built from:
//!
//! 1. the committed schedule, replayed one transaction at a time with
//!    `GraphOp::apply_all`, must reproduce the service's final
//!    conceptual state;
//! 2. each external view, replayed through `ExternalView` with the same
//!    committed schedule, must reproduce the service's final view
//!    state, and must satisfy Definition 2 (state equivalence within
//!    the view's vocabulary) against the final conceptual state;
//! 3. recovery from the durable image must rebuild the same state.
//!
//! The vendored proptest shim does not shrink, so this suite carries
//! its own schedule minimizer: a failing spec is greedily delta-debugged
//! to a locally minimal failing schedule (fewest sessions, then fewest
//! operations) before the failure is reported, and the minimal spec is
//! appended to `proptest-regressions/` for replay.

use std::sync::Arc;

use proptest::prelude::*;

use borkin_equiv::ansi::ExternalView;
use borkin_equiv::equivalence::translate::CompletionMode;
use borkin_equiv::graph::GraphOp;
use borkin_equiv::server::{
    CommitMode, MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec,
};
use borkin_equiv::workload::{self, SessionStream, ShopConfig};

/// One generated schedule: everything needed to re-run it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ScheduleSpec {
    seed: u64,
    sessions: usize,
    ops_each: usize,
    per_op_commit: bool,
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

/// Runs one schedule concurrently and checks every conformance
/// property. `Err` carries a human-readable violation.
fn run_schedule(spec: ScheduleSpec) -> Result<(), String> {
    run_schedule_with(spec, 0, 1)
}

/// [`run_schedule`] with a checkpoint cadence: `checkpoint_every`
/// commits between images, every `full_checkpoint_every`-th a full one.
/// A non-zero cadence exercises incremental chains, MVCC garbage
/// collection, and WAL truncation *under* the concurrent storm.
fn run_schedule_with(
    spec: ScheduleSpec,
    checkpoint_every: u64,
    full_checkpoint_every: u64,
) -> Result<(), String> {
    let cfg = shop_cfg(spec.seed);
    let initial = workload::graph_state(cfg);
    let config = ServiceConfig {
        commit_mode: if spec.per_op_commit {
            CommitMode::PerOp
        } else {
            CommitMode::Group
        },
        checkpoint_every,
        full_checkpoint_every,
        ..ServiceConfig::default()
    };
    let service = SessionService::new(
        initial.clone(),
        views(cfg),
        config,
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .map_err(|e| format!("boot: {e}"))?;

    // A sentinel relational session opened *before* the storm: its
    // pinned snapshot must still read the initial state afterwards, no
    // matter how many commits, checkpoints, or GC passes happened — the
    // MVCC pin, not a private state copy, is what holds that history.
    let sentinel = service
        .open_session(SessionKind::Relational {
            view: "personnel".into(),
        })
        .map_err(|e| format!("sentinel admit: {e}"))?;
    let sentinel_view = {
        let spec = &views(cfg)[1];
        ExternalView::materialize(&spec.name, spec.schema.clone(), &initial, spec.mode)
            .map_err(|e| format!("sentinel oracle: {e}"))?
    };

    let streams = workload::session_streams(cfg, spec.sessions, spec.ops_each);
    std::thread::scope(|scope| {
        for stream in &streams {
            let service = service.clone();
            scope.spawn(move || match stream {
                SessionStream::Graph { ops } => {
                    let mut sess = service
                        .open_session(SessionKind::Graph)
                        .expect("graph session admits");
                    for op in ops {
                        // Aborts are legitimate under interleaving (the
                        // association is already present / already
                        // gone); the conformance claim is about what
                        // *committed*.
                        let _ = sess.submit_graph(vec![op.clone()]);
                    }
                    sess.close().expect("graceful graph teardown");
                }
                SessionStream::Relational { view, ops } => {
                    let mut sess = service
                        .open_session(SessionKind::Relational { view: view.clone() })
                        .expect("relational session admits");
                    for op in ops {
                        let _ = sess.submit_relational(op);
                    }
                    sess.close().expect("graceful relational teardown");
                }
            });
        }
    });

    // The un-refreshed sentinel still reads its pre-storm snapshot.
    if sentinel
        .relational_state()
        .map_err(|e| format!("sentinel read: {e}"))?
        != sentinel_view.state()
    {
        return Err("sentinel snapshot drifted during the storm".into());
    }
    if *sentinel
        .conceptual_state()
        .map_err(|e| format!("sentinel conceptual read: {e}"))?
        != initial
    {
        return Err("sentinel conceptual snapshot drifted during the storm".into());
    }
    sentinel
        .close()
        .map_err(|e| format!("sentinel teardown: {e}"))?;

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
    let live = service.conceptual();
    if *live != oracle {
        return Err("final conceptual state != sequential replay of committed schedule".into());
    }
    oracle
        .validate()
        .map_err(|e| format!("committed state violates the conceptual schema: {e}"))?;

    // Oracle 2: every view through the sequential view machinery.
    for spec in views(cfg) {
        let mut view = ExternalView::materialize(&spec.name, spec.schema, &initial, spec.mode)
            .map_err(|e| format!("oracle materialize {}: {e}", spec.name))?;
        let mut cursor = initial.clone();
        for txn in &history {
            view.apply_conceptual(&txn.ops, &cursor)
                .map_err(|e| format!("oracle replay into {}: {e}", spec.name))?;
            cursor = GraphOp::apply_all(&txn.ops, &cursor).expect("already replayed once");
        }
        let served = service
            .view_state(&spec.name)
            .ok_or_else(|| format!("service lost view {}", spec.name))?;
        if view.state() != &served {
            return Err(format!(
                "view {} diverged from its sequential replay",
                spec.name
            ));
        }
        if !view.consistent_with(&oracle) {
            return Err(format!(
                "view {} violates Definition 2 against the final conceptual state",
                spec.name
            ));
        }
    }

    // Oracle 4: time travel. `state_at(lsn)` must reproduce the
    // sequential replay of every committed prefix. Only meaningful when
    // no checkpoint cadence runs — a cadence garbage-collects version
    // history behind the GC horizon, by design.
    if checkpoint_every == 0 {
        let mut cursor = initial.clone();
        let at = service
            .state_at(0)
            .map_err(|e| format!("state_at(0): {e}"))?;
        if at != cursor {
            return Err("state_at(0) != initial state".into());
        }
        for txn in &history {
            cursor = GraphOp::apply_all(&txn.ops, &cursor).expect("already replayed once");
            let at = service
                .state_at(txn.lsn)
                .map_err(|e| format!("state_at({}): {e}", txn.lsn))?;
            if at != cursor {
                return Err(format!(
                    "state_at({}) != sequential replay of the first {} transactions",
                    txn.lsn,
                    history.iter().take_while(|t| t.lsn <= txn.lsn).count()
                ));
            }
        }
    }

    // Oracle 3: recovery from the durable image agrees with the live
    // service.
    let (recovered, report) = SessionService::recover(
        Arc::clone(oracle.schema()),
        &service.durable_image(),
        views(cfg),
        ServiceConfig::default(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    if *recovered.conceptual() != oracle {
        return Err("recovered conceptual state != committed state".into());
    }
    // Without a cadence the only checkpoint is the boot image, so
    // recovery must replay the whole history; under a cadence the
    // resolved chain (and WAL truncation) legitimately bound replay.
    if checkpoint_every == 0 && report.replayed != history.len() {
        return Err(format!(
            "recovery replayed {} of {} committed transactions",
            report.replayed,
            history.len()
        ));
    }
    if report.replayed > history.len() {
        return Err(format!(
            "recovery replayed {} transactions, more than the {} committed",
            report.replayed,
            history.len()
        ));
    }
    Ok(())
}

/// The MVCC economy under fire: the same concurrent schedules, now with
/// checkpoint cadences that interleave incremental images, version GC,
/// base advancement, and WAL truncation with the commit storm — every
/// oracle (including the pinned pre-storm sentinel) must still hold.
#[test]
fn checkpoint_cadences_conform_under_concurrency() {
    for seed in [7, 42, 1978] {
        // (commits per image, images per full): every-full baseline,
        // incremental chains, and a sparser full cadence.
        for (every, full) in [(1, 1), (2, 3), (3, 2)] {
            let spec = ScheduleSpec {
                seed,
                sessions: 5,
                ops_each: 4,
                per_op_commit: seed % 2 == 0,
            };
            run_schedule_with(spec, every, full).unwrap_or_else(|violation| {
                panic!("seed {seed}, cadence ({every},{full}): {violation}")
            });
        }
    }
}

/// Greedy delta-debugging over schedule specs: shrink sessions, then
/// ops per session, keeping any candidate on which the failure still
/// reproduces. `fails` decides reproduction (for the live suite it
/// re-runs the schedule a few times, since interleaving is
/// nondeterministic).
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

/// Re-runs a schedule up to three times; any failure counts as
/// reproducing (concurrent interleavings vary between runs).
fn reproduces(spec: ScheduleSpec) -> bool {
    (0..3).any(|_| run_schedule(spec).is_err())
}

fn record_regression(spec: ScheduleSpec, violation: &str) {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("proptest-regressions");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("service_conformance.txt"))
    {
        let _ = writeln!(f, "# {violation}");
        let _ = writeln!(
            f,
            "seed={} sessions={} ops_each={} per_op_commit={}",
            spec.seed, spec.sessions, spec.ops_each, spec.per_op_commit
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 generated interleaved schedules, each checked against the
    /// sequential oracle; failures are minimized before reporting.
    #[test]
    fn concurrent_schedules_conform_to_the_sequential_oracle(
        seed in 0u64..1_000_000,
        sessions in 2usize..=6,
        ops_each in 1usize..=6,
        per_op_commit in 0u32..2,
    ) {
        let spec = ScheduleSpec {
            seed,
            sessions,
            ops_each,
            per_op_commit: per_op_commit == 1,
        };
        if let Err(violation) = run_schedule(spec) {
            let minimal = minimize_spec(spec, reproduces);
            record_regression(minimal, &violation);
            prop_assert!(
                false,
                "schedule violates conformance: {violation}\n  minimal failing spec: {minimal:?}"
            );
        }
    }
}

/// The minimizer itself must find minimal failing schedules: on a
/// synthetic failure predicate with a known frontier, greedy shrinking
/// lands exactly on the frontier.
#[test]
fn minimizer_produces_a_minimal_failing_schedule() {
    let fails = |s: ScheduleSpec| s.sessions >= 3 && s.ops_each >= 2;
    let minimal = minimize_spec(
        ScheduleSpec {
            seed: 7,
            sessions: 6,
            ops_each: 6,
            per_op_commit: false,
        },
        fails,
    );
    assert_eq!((minimal.sessions, minimal.ops_each), (3, 2));
    // Already-minimal specs are fixed points.
    let fixed = minimize_spec(minimal, fails);
    assert_eq!(fixed, minimal);
}

/// Acceptance check: one transaction's `TraceId` is greppable from a
/// JSON-lines transcript and reconstructs the causal path admit →
/// verify (with the equivalence tier that checked it) → group commit →
/// WAL append → recovery replay.
#[test]
fn one_trace_id_reconstructs_the_transaction_causal_path() {
    use borkin_equiv::obs::{JsonLinesSink, Observer};

    let cfg = shop_cfg(7);
    let initial = workload::graph_state(cfg);
    let path = std::env::temp_dir().join(format!(
        "dme_conformance_trace_{}.jsonl",
        std::process::id()
    ));
    let sink = JsonLinesSink::create(&path).unwrap();
    let obs = Observer::new(sink.clone());
    let config = ServiceConfig {
        obs: obs.clone(),
        ..ServiceConfig::default()
    };
    let service = SessionService::new(
        initial.clone(),
        views(cfg),
        config.clone(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    let mut sess = service.open_session(SessionKind::Graph).unwrap();
    let mut infos = Vec::new();
    for op in workload::supervision_toggle_ops(cfg, 3) {
        infos.push(sess.submit_graph(vec![op]).unwrap().expect_commit());
    }
    sess.close().unwrap();

    // Recovery replays into the same transcript, closing the loop.
    let (recovered, _) = SessionService::recover(
        Arc::clone(initial.schema()),
        &service.durable_image(),
        views(cfg),
        config,
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .unwrap();
    assert_eq!(recovered.conceptual(), service.conceptual());

    sink.flush().unwrap();
    let transcript = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // Every commit got a distinct trace id.
    let mut ids: Vec<String> = infos.iter().map(|i| i.trace.to_string()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), infos.len(), "trace ids are distinct per txn");

    // Grep the middle transaction's id out of the transcript: its
    // trace events, in file (= causal) order.
    let info = &infos[1];
    let needle = info.trace.to_string();
    let mut names = Vec::new();
    let mut verify_detail = String::new();
    for line in transcript.lines().filter(|l| l.contains(&needle)) {
        assert!(line.contains("\"ev\":\"trace\""), "non-trace line: {line}");
        let name = line
            .split("\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unnamed trace line: {line}"));
        if name == "server/verify" {
            verify_detail = line.to_string();
        }
        names.push(name.to_string());
    }
    assert_eq!(
        names,
        vec![
            "server/admit",
            "server/verify",
            "server/group_commit",
            "server/wal_append",
            "server/reply",
            "server/replay",
        ],
        "trace {needle} causal path"
    );
    assert!(
        verify_detail.contains("tier=def2-state-equivalence")
            || verify_detail.contains("tier=def1-translation"),
        "verify event names its equivalence tier: {verify_detail}"
    );
    // And the WAL record itself is stamped with the same id.
    let image = service.durable_image();
    let records = borkin_equiv::storage::wal::replay(&image.wal).unwrap();
    assert!(
        records
            .iter()
            .any(|r| r.trace == Some(info.trace.as_u64()) && r.lsn == info.lsn),
        "WAL carries the trace stamp"
    );
}

/// Acceptance check for cross-shard stitching: a transaction touching
/// ≥2 shard lanes assembles — via the service's trace hub — into one
/// causal tree rooted at its admit span, with a `server/wal_append`
/// span on *every* involved shard, and each involved shard's WAL frame
/// is stamped with that shard's own span pair. The observer's ring
/// transcript carries the same steps: assembled, it renders the very
/// tree `lookup_trace` serves.
#[test]
fn a_cross_shard_transaction_stitches_into_one_causal_tree() {
    use borkin_equiv::graph::{Association, EntityRef};
    use borkin_equiv::obs::{EventKind, Observer, RingSink, TraceAssembler};
    use borkin_equiv::server::shard::shard_of;
    use borkin_equiv::storage::wal;
    use borkin_equiv::value::Atom;

    const SHARDS: usize = 4;
    let cfg = ShopConfig {
        employees: 12,
        machines: 2,
        supervisions: 0,
        seed: 9,
    };
    let initial = workload::graph_state(cfg);
    let ring = RingSink::with_capacity(1024);
    let service = SessionService::new_sharded(
        initial,
        Vec::new(),
        ServiceConfig {
            shards: SHARDS,
            obs: Observer::new(ring.clone()),
            ..ServiceConfig::default()
        },
        (0..SHARDS)
            .map(|_| Box::new(MemDevice::new()) as Box<dyn borkin_equiv::server::LogDevice>)
            .collect(),
        Box::new(MemDevice::new()),
    )
    .unwrap();

    // Pick two employees homed on *different* shard lanes so the
    // supervision between them journals cross-shard.
    let employee = |i: usize| EntityRef::new("employee", Atom::str(format!("E{i:05}")));
    let home = shard_of(&employee(0), SHARDS);
    let other = (1..cfg.employees)
        .find(|&i| shard_of(&employee(i), SHARDS) != home)
        .expect("a dozen employees span more than one of four shards");
    let mut sess = service.open_session(SessionKind::Graph).unwrap();
    let info = sess
        .submit_graph(vec![GraphOp::InsertAssociation(Association::new(
            "supervise",
            [("agent", employee(0)), ("object", employee(other))],
        ))])
        .unwrap()
        .expect_commit();
    sess.close().unwrap();

    let involved = vec![
        shard_of(&employee(0), SHARDS).min(shard_of(&employee(other), SHARDS)) as u32,
        shard_of(&employee(0), SHARDS).max(shard_of(&employee(other), SHARDS)) as u32,
    ];
    let asm = service
        .trace_hub()
        .assemble(info.trace)
        .expect("the hub kept the trace");
    assert_eq!(asm.shards(), involved, "spans from every involved shard");
    let events = service.trace_hub().lookup(info.trace).unwrap();
    let admit: Vec<_> = events.iter().filter(|e| e.parent == 0).collect();
    assert_eq!(admit.len(), 1, "one causal root");
    assert_eq!(admit[0].name, "server/admit");
    let tree = asm.to_json(info.trace);
    for step in [
        "server/admit",
        "server/verify",
        "server/group_commit",
        "server/wal_append",
        "server/reply",
    ] {
        assert!(tree.contains(step), "stitched tree lost {step}: {tree}");
    }
    // lookup_trace (the TraceLookup admin surface) renders the same tree.
    assert_eq!(service.lookup_trace(info.trace), tree);
    // So does the observer's transcript: the ring holds the same steps,
    // both shards' wal_appends and the reply included.
    let mut from_ring = TraceAssembler::new();
    for event in ring.events() {
        if let EventKind::Trace(step) = event.kind {
            if step.trace == info.trace {
                from_ring.push(step);
            }
        }
    }
    assert_eq!(from_ring.len(), events.len(), "one step per hub step");
    assert_eq!(from_ring.to_json(info.trace), tree);

    // Every involved shard's WAL carries the transaction, stamped with
    // that shard's own (span, parent) pair from the stitched tree.
    let image = service.durable_image();
    let wal_bytes = |s: u32| -> &Vec<u8> {
        if s == 0 {
            &image.wal
        } else {
            &image.shard_wals[s as usize - 1]
        }
    };
    for &s in &involved {
        let records = wal::replay(wal_bytes(s)).unwrap();
        let record = records
            .iter()
            .find(|r| r.lsn == info.lsn)
            .unwrap_or_else(|| panic!("shard {s} journaled lsn {}", info.lsn));
        assert_eq!(record.trace, Some(info.trace.as_u64()));
        let (span, parent) = record.span.expect("frame is span-stamped");
        let stamped = events
            .iter()
            .find(|e| e.span == span)
            .expect("stamped span is in the stitched tree");
        assert_eq!(stamped.name, "server/wal_append");
        assert_eq!(stamped.shard, Some(s), "frame stamped with its own lane");
        assert_eq!(stamped.parent, parent, "stamp carries the commit parent");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The assembler is order-insensitive: any arrival permutation of a
    /// trace's events stitches into the identical rendered tree (spans
    /// order the tree; content breaks ties between span-less steps).
    #[test]
    fn trace_assembly_is_order_insensitive(seed in 0u64..1_000_000) {
        use borkin_equiv::obs::{TraceAssembler, TraceId, TraceStep};

        let step = |span: u64, parent: u64, name: &'static str, shard: Option<u32>| TraceStep {
            trace: TraceId(seed),
            span,
            parent,
            shard,
            name,
            detail: format!("step {span}"),
        };
        let canonical = vec![
            step(1, 0, "server/admit", None),
            step(2, 1, "server/verify", None),
            step(3, 1, "server/group_commit", None),
            step(4, 3, "server/wal_append", Some(0)),
            step(5, 3, "server/wal_append", Some(2)),
            step(6, 1, "server/reply", None),
        ];
        let expected = {
            let mut asm = TraceAssembler::new();
            for e in &canonical {
                asm.push(e.clone());
            }
            asm.to_json(TraceId(seed))
        };
        // Fisher–Yates keyed off the case seed: a different arrival
        // permutation per case, same event set.
        let mut mix = seed;
        let mut shuffled = canonical;
        for i in (1..shuffled.len()).rev() {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (mix >> 33) as usize % (i + 1));
        }
        let mut asm = TraceAssembler::new();
        for e in &shuffled {
            asm.push(e.clone());
        }
        prop_assert_eq!(asm.to_json(TraceId(seed)), expected);
    }
}

/// A deterministic smoke case pinning the oracle end to end (the
/// property above runs it across many random specs).
#[test]
fn fixed_schedule_conforms() {
    run_schedule(ScheduleSpec {
        seed: 42,
        sessions: 6,
        ops_each: 4,
        per_op_commit: false,
    })
    .unwrap();
    run_schedule(ScheduleSpec {
        seed: 43,
        sessions: 4,
        ops_each: 3,
        per_op_commit: true,
    })
    .unwrap();
}
