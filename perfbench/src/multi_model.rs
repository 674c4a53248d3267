//! `multi_model`: the paper's scenario. A small shop state is served to
//! graph sessions and to relational sessions over the `"shop"` view and
//! the `"personnel"` §1.2 subset view.
//!
//! Two closed-loop clients use one connection each. Each client cycles
//! through a graph session, a shop-relational session and a
//! personnel-relational session, each toggling supervisions of its own
//! employee pairs (employees in no other association, so every write
//! commits under any interleaving; a stale relational snapshot is
//! retried by the service, which is not a failure). After every third
//! write the client reads a view over the wire. Translation and view
//! maintenance dominate each commit; the run ends with a restart.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dme_ansi::ExternalView;
use dme_core::translate::{graph_op_to_relational, relational_op_to_graph, CompletionMode};
use dme_graph::GraphState;
use dme_relation::RelOp;
use dme_server::wire::{Request, Response};
use dme_server::{
    Client, NetServer, RemoteSession, ServiceConfig, SessionKind, SessionService, ViewSpec,
};
use dme_value::{tuple, Value};

use crate::stats::{median, quantile, tail, timed, Rng};
use crate::svc::{self, Devices};
use crate::trace::{self, now_ns, Tracer};
use crate::{Args, Outcome};

/// The shop state is fixed: translation cost depends on its shape (who
/// operates and supervises whom), which varies with the generator seed
/// by more than any change worth measuring. The run seed picks each
/// client's pairs and the order they are written in.
const SHOP_SEED: u64 = 42;
const EMPLOYEES: usize = 100;
const MACHINES: usize = 30;
const SUPERVISIONS: usize = 30;
const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const KINDS: usize = 3;
const READ_EVERY: usize = 3;
/// Set-ups before the load; every slice adds one more.
const SETUP_REPS: usize = 5;
/// Slices of the untraced closed loop.
const SLICES: usize = 10;
const RECOVERY_REPS: usize = 51;
const PROBE_COMMITS: usize = 50;
const VIEW_READS: usize = 200;
const CODEC_SAMPLE: usize = 256;
/// Stated tolerance for layer self-time medians summing to the traced
/// commit median.
const PATH_TOLERANCE_PCT: f64 = 25.0;

type Pair = (String, String);

fn shop() -> dme_workload::ShopConfig {
    dme_workload::ShopConfig {
        employees: EMPLOYEES,
        machines: MACHINES,
        supervisions: SUPERVISIONS,
        seed: SHOP_SEED,
    }
}

fn views() -> Vec<ViewSpec> {
    vec![
        ViewSpec {
            name: "shop".into(),
            schema: dme_workload::relational_schema(shop()),
            mode: CompletionMode::StateCompleted,
        },
        ViewSpec {
            name: "personnel".into(),
            schema: dme_workload::personnel_schema(shop()),
            mode: CompletionMode::Minimal,
        },
    ]
}

fn config() -> ServiceConfig {
    ServiceConfig::builder()
        .shards(SHARDS)
        .max_attempts(64)
        .lockstep_verify(false)
        .build()
        .expect("multi_model service config is valid")
}

struct World {
    initial: GraphState,
    service: SessionService,
    server: NetServer,
    clients: Vec<Client>,
    /// Per client: graph, shop-relational and personnel-relational.
    sessions: Vec<Vec<RemoteSession>>,
    devices: Devices,
    /// Per client, per session kind: the pairs it toggles.
    pairs: Vec<Vec<Vec<Pair>>>,
    probe_pair: Pair,
    facts: usize,
}

fn setup(seed: u64, trace: bool) -> World {
    let initial = dme_workload::graph_state(shop());
    let (entities, associations) = initial.sizes();
    let mut free = svc::unattached_employees(&initial);
    Rng::new(seed, 1).shuffle(&mut free);
    let mut all: Vec<Pair> = free
        .chunks_exact(2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect();
    assert!(
        all.len() > CLIENTS * KINDS,
        "only {} unattached employee pairs",
        all.len()
    );
    let probe_pair = all.pop().expect("a reserved probe pair");
    let mut pairs = vec![vec![Vec::new(); KINDS]; CLIENTS];
    for (j, p) in all.into_iter().enumerate() {
        pairs[j % CLIENTS][(j / CLIENTS) % KINDS].push(p);
    }
    let (wals, cp, devices) = svc::devices(SHARDS, trace);
    let service = SessionService::new_sharded(initial.clone(), views(), config(), wals, cp)
        .expect("multi_model service boots");
    let server = NetServer::serve(service.clone());
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| server.connect().expect("connection opens"))
        .collect();
    let sessions = clients
        .iter()
        .map(|c| {
            [
                SessionKind::Graph,
                SessionKind::Relational {
                    view: "shop".into(),
                },
                SessionKind::Relational {
                    view: "personnel".into(),
                },
            ]
            .into_iter()
            .map(|kind| c.open_session(kind).expect("session opens"))
            .collect()
        })
        .collect();
    World {
        initial,
        service,
        server,
        clients,
        sessions,
        devices,
        pairs,
        probe_pair,
        facts: entities + associations,
    }
}

/// Closes every session, then stops the server; returns whether every
/// close passed the service's closing equivalence check.
fn teardown(w: World) -> bool {
    let mut consistent = true;
    for s in w.sessions.into_iter().flatten() {
        consistent &= s.close().is_ok();
    }
    drop(w.clients);
    w.server.shutdown();
    consistent
}

/// One write, as the client issued it.
struct Write {
    kind: usize,
    /// The relational operation, for relational sessions.
    rel: Option<RelOp>,
    start: u64,
    end: u64,
    /// The commit's LSN and attempts, or why it failed.
    got: Result<(u64, u32), String>,
}

/// Everything one closed-loop phase produced.
#[derive(Default)]
struct Phase {
    writes: Vec<Write>,
    /// Wire view-read latencies, ms.
    reads: Vec<f64>,
    read_errors: usize,
    codec_sample: Vec<(Request, Response)>,
}

/// One client's closed loop until `deadline`.
fn client_loop(
    client: &Client,
    sessions: &[RemoteSession],
    pairs: &[Vec<Pair>],
    present: &mut HashMap<Pair, bool>,
    deadline: Instant,
) -> Phase {
    let mut phase = Phase::default();
    let mut k = 0usize;
    while Instant::now() < deadline {
        let kind = k % KINDS;
        let pair = &pairs[kind][(k / KINDS) % pairs[kind].len()];
        let on = present.get(pair).copied().unwrap_or(false);
        let (a, o) = (pair.0.as_str(), pair.1.as_str());
        let rel = match kind {
            0 => None,
            1 => Some(("Jobs", tuple![a, o, Value::Null])),
            _ => Some(("Supervisions", tuple![a, o])),
        }
        .map(|(relation, t)| {
            if on {
                RelOp::delete(relation, [t])
            } else {
                RelOp::insert(relation, [t])
            }
        });
        let session = sessions[kind].id();
        let request = match &rel {
            None => Request::SubmitGraph {
                session,
                ops: vec![svc::toggle(pair, !on)],
            },
            Some(op) => Request::SubmitRelational {
                session,
                op: op.clone(),
            },
        };
        let start = now_ns();
        let response = client.call_blocking(&request);
        let end = now_ns();
        let got = match &response {
            Ok(Response::Committed(info)) => {
                present.insert(pair.clone(), !on);
                Ok((info.lsn, info.attempts))
            }
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(e.to_string()),
        };
        if let (Ok(resp), true) = (response, phase.codec_sample.len() < CODEC_SAMPLE) {
            phase.codec_sample.push((request, resp));
        }
        phase.writes.push(Write {
            kind,
            rel,
            start,
            end,
            got,
        });
        k += 1;
        if k.is_multiple_of(READ_EVERY) {
            let view = if (k / READ_EVERY).is_multiple_of(2) {
                "shop"
            } else {
                "personnel"
            };
            let t = now_ns();
            match client.view_state(view) {
                Ok(_) => phase.reads.push((now_ns() - t) as f64 / 1e6),
                Err(_) => phase.read_errors += 1,
            }
        }
    }
    phase
}

/// Both clients for `secs`, one thread each.
fn closed_loop(w: &World, present: &mut [HashMap<Pair, bool>], secs: f64) -> Phase {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = present
            .iter_mut()
            .enumerate()
            .map(|(c, present)| {
                let (client, sessions, pairs) = (&w.clients[c], &w.sessions[c], &w.pairs[c]);
                scope.spawn(move || client_loop(client, sessions, pairs, present, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finishes"))
            .collect()
    });
    let mut all = Phase::default();
    for p in phases {
        all.extend(p);
    }
    all
}

impl Phase {
    fn extend(&mut self, other: Phase) {
        self.writes.extend(other.writes);
        self.reads.extend(other.reads);
        self.read_errors += other.read_errors;
        self.codec_sample.extend(other.codec_sample);
    }

    fn commit_ms(&self) -> Vec<f64> {
        self.writes
            .iter()
            .filter(|w| w.got.is_ok())
            .map(|w| (w.end - w.start) as f64 / 1e6)
            .collect()
    }
}

/// A traced write: its request id, root span, and for a relational
/// write the view index, operation and commit attempts.
type TracedWrite = (u64, u64, Option<(usize, RelOp, u32)>);

/// Replays the committed history in LSN order over a mirror of the
/// conceptual state and views, timing each translation the service
/// performed for the traced writes, and records them as spans under the
/// write's root span. Returns (rel→graph µs, graph→rel µs, calls).
fn replay_translations(
    w: &World,
    tracer: &Tracer,
    traced: &HashMap<u64, TracedWrite>,
) -> (Vec<f64>, Vec<f64>, u64) {
    let mut graph = w.initial.clone();
    let mut mirrors: Vec<ExternalView> = views()
        .into_iter()
        .map(|v| {
            ExternalView::materialize(v.name, v.schema, &graph, v.mode).expect("view materializes")
        })
        .collect();
    let (mut up, mut down, mut calls) = (Vec::new(), Vec::new(), 0u64);
    for txn in w.service.committed_history() {
        let entry = traced.get(&txn.lsn);
        // A relational write is translated up once per commit attempt.
        if let Some(&(request, root, Some((view, ref op, attempts)))) = entry {
            for _ in 0..attempts {
                let t = now_ns();
                let r = relational_op_to_graph(op, mirrors[view].state(), &graph);
                let end = now_ns();
                std::hint::black_box(r.ok());
                tracer.record("translate.rel_to_graph", root, request, t, end);
                up.push((end - t) as f64 / 1e3);
                calls += 1;
            }
        }
        // Every committed op is translated down into every view.
        for view in &mut mirrors {
            if let Some(&(request, root, _)) = entry {
                let mut cursor = graph.clone();
                for gop in &txn.ops {
                    let t = now_ns();
                    let r = graph_op_to_relational(gop, &cursor, view.state(), view.mode());
                    let end = now_ns();
                    std::hint::black_box(r.ok());
                    tracer.record("translate.graph_to_rel", root, request, t, end);
                    down.push((end - t) as f64 / 1e3);
                    calls += 1;
                    cursor = gop.apply(&cursor).expect("committed op applies");
                }
            }
            view.apply_conceptual(&txn.ops, &graph)
                .expect("committed op translates");
        }
        for gop in &txn.ops {
            graph = gop.apply(&graph).expect("committed op applies");
        }
    }
    (up, down, calls)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Earlier set-ups are torn down before the next starts, so memory
    // peaks stay comparable.
    let spawn = || setup(args.seed, args.trace);
    let mut setup_times = Vec::new();
    let mut w = timed(&mut setup_times, spawn);
    for _ in 1..SETUP_REPS {
        teardown(w);
        w = timed(&mut setup_times, spawn);
    }
    out.note(format!(
        "multi_model: {} facts, views shop + personnel, {SHARDS} shards, {CLIENTS} closed-loop \
         clients x (graph, shop, personnel) sessions, a view read after every {READ_EVERY} \
         writes; device sync {} us",
        w.facts,
        crate::device::SYNC_DELAY_US
    ));
    let tracer = Tracer::new(args.trace);
    let mut present = vec![HashMap::new(); CLIENTS];
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The untraced closed loop runs in slices with one spare set-up after
    // each, so set-up is timed across the whole run; the commit rate is
    // the median slice's.
    let slice_s = secs / SLICES as f64;
    let mut run = Phase::default();
    let mut rates = Vec::with_capacity(SLICES);
    let mut spares_consistent = true;
    for _ in 0..SLICES {
        let slice = closed_loop(&w, &mut present, slice_s);
        rates.push(slice.commit_ms().len() as f64 / slice_s);
        run.extend(slice);
        spares_consistent &= teardown(timed(&mut setup_times, spawn));
    }
    out.metric("setup_s", median(&setup_times), "s");
    let untraced_ms = run.commit_ms();
    let commits_per_s = median(&rates);
    out.metric("commit_p50_ms", median(&untraced_ms), "ms");
    out.metric("op_p50_ms", median(&untraced_ms), "ms");
    if let Some(v) = tail(&untraced_ms, 0.95) {
        out.metric("commit_p95_ms", v, "ms");
    }
    if let Some(v) = tail(&untraced_ms, 0.99) {
        out.metric("commit_p99_ms", v, "ms");
    }
    out.metric("commits_per_s", commits_per_s, "txn/s");
    out.metric("ops_per_s", commits_per_s, "1/s");
    out.metric("read_p50_ms", median(&run.reads), "ms");
    out.metric("read_p95_ms", quantile(&run.reads, 0.95), "ms");
    out.note(format!(
        "closed loop: {} commits in {SLICES} slices of {slice_s:.1} s at {:.1}-{:.1} txn/s, \
         {} view reads",
        untraced_ms.len(),
        quantile(&rates, 0.0),
        quantile(&rates, 1.0),
        run.reads.len()
    ));

    let mut probe_commits = 0usize;
    if args.trace {
        let traced = closed_loop(&w, &mut present, secs);
        let traced_ms = traced.commit_ms();
        out.metric(
            "trace.overhead_pct",
            (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
            "%",
        );
        let mut by_lsn = HashMap::new();
        let mut translated = HashMap::new();
        for (i, wr) in traced.writes.iter().enumerate() {
            let request = i as u64 + 1;
            let root = tracer.record("mm.commit", 0, request, wr.start, wr.end);
            if let Ok((lsn, attempts)) = wr.got {
                by_lsn.insert(lsn, (request, root));
                let rel = wr.rel.clone().map(|op| (wr.kind - 1, op, attempts));
                translated.insert(lsn, (request, root, rel));
            }
        }
        w.devices.attach_spans(&tracer, &by_lsn);
        let (up, down, calls) = replay_translations(&w, &tracer, &translated);
        out.metric("translate.rel_to_graph_us_p50", median(&up), "us");
        out.metric("translate.graph_to_rel_us_p50", median(&down), "us");
        out.metric(
            "translate.calls_per_commit",
            calls as f64 / traced_ms.len().max(1) as f64,
            "ratio",
        );
        let split = trace::path_split(&tracer.spans(), "mm.commit");
        for (name, ms) in &split.layers {
            out.note(format!("  commit path self p50 {name:<26} {ms:.4} ms"));
        }
        out.note(format!(
            "commit path: layer self-time medians sum to {:.4} ms vs traced commit_p50 \
             {:.4} ms over {} requests (error {:.1}%, tolerance {PATH_TOLERANCE_PCT}%)",
            split.sum_ms, split.root_p50_ms, split.requests, split.error_pct
        ));
        out.validity(
            format!(
                "commit-path self times sum to the traced commit_p50 within \
                 {PATH_TOLERANCE_PCT}%"
            ),
            split.error_pct <= PATH_TOLERANCE_PCT,
        );
        out.metric("trace.path_sum_error_pct", split.error_pct, "%");
        run.extend(traced);

        let mut materialize_ms = 0.0;
        for v in views() {
            let t = now_ns();
            let view = ExternalView::materialize(v.name, v.schema, &w.initial, v.mode);
            materialize_ms += (now_ns() - t) as f64 / 1e6;
            std::hint::black_box(view.ok());
        }
        out.metric("view.materialize_ms", materialize_ms, "ms");
        let mut read_us = Vec::new();
        for i in 0..VIEW_READS {
            let t = now_ns();
            let state = w
                .service
                .view_state(if i % 2 == 0 { "shop" } else { "personnel" });
            read_us.push((now_ns() - t) as f64 / 1e3);
            std::hint::black_box(state);
        }
        out.metric("view.read_us_p50", median(&read_us), "us");
        match svc::call_vs_handle(
            &w.service,
            &w.clients[0],
            &tracer,
            &w.probe_pair,
            false,
            PROBE_COMMITS,
            &w.devices,
        ) {
            Ok((call_us, handle_us, self_us)) => {
                probe_commits = 2 * PROBE_COMMITS;
                out.metric("net.rtt_overhead_us_p50", call_us - handle_us, "us");
                out.metric("service.handle_us_p50", handle_us, "us");
                out.metric("service.self_us_per_txn", self_us, "us");
            }
            Err(e) => out.check(format!("call-versus-handle probe: {e}"), false),
        }
    }

    // Correctness.
    let errors: Vec<&String> = run
        .writes
        .iter()
        .filter_map(|w| w.got.as_ref().err())
        .collect();
    if let Some(e) = errors.first() {
        out.note(format!("first failed write: {e}"));
        eprintln!("perfbench: first failed write: {e}");
    }
    out.attempted = (run.writes.len() + run.reads.len() + run.read_errors) as u64;
    out.failed = (errors.len() + run.read_errors) as u64;
    let committed: Vec<(u64, u32)> = run
        .writes
        .iter()
        .filter_map(|w| w.got.clone().ok())
        .collect();
    let retries: u64 = committed.iter().map(|&(_, a)| u64::from(a - 1)).sum();
    out.metric(
        "session.retries_per_commit",
        retries as f64 / committed.len().max(1) as f64,
        "ratio",
    );
    let acked: HashSet<u64> = committed.iter().map(|c| c.0).collect();
    let history = w.service.committed_history();
    let in_history: HashSet<u64> = history.iter().map(|t| t.lsn).collect();
    out.check(
        format!(
            "{} acked commits all in committed_history ({} entries incl. {probe_commits} probe)",
            acked.len(),
            history.len()
        ),
        acked.is_subset(&in_history) && history.len() == acked.len() + probe_commits,
    );
    let expected = w.service.conceptual();
    let toggles_hold = w.pairs.iter().zip(&present).all(|(kinds, on)| {
        kinds.iter().flatten().all(|p| {
            expected.has_association(&svc::supervise(&p.0, &p.1))
                == on.get(p).copied().unwrap_or(false)
        })
    });
    out.check(
        "conceptual state holds exactly the acknowledged toggles",
        toggles_hold,
    );
    let txns = history.len() as u64;
    w.devices.layer_metrics(&mut out, txns);
    let (codec_us, codec_bytes) = svc::codec_cost(&run.codec_sample);
    out.metric("wire.codec_us_per_req", codec_us, "us");
    out.metric("wire.bytes_per_req", codec_bytes, "B");
    let expected_views: Vec<_> = ["shop", "personnel"]
        .into_iter()
        .map(|v| (v.to_string(), w.service.view_state(v).expect("view exists")))
        .collect();
    let image = w.devices.synced_image();
    let durable: usize = image.wals().map(<[u8]>::len).sum::<usize>() + image.checkpoint.len();
    out.metric(
        "storage.durable_bytes_per_txn",
        durable as f64 / txns.max(1) as f64,
        "B",
    );
    out.metric(
        "wal.replay_ms_per_mb",
        svc::replay_ms_per_mb(&image),
        "ms/MB",
    );
    let schema = Arc::clone(w.service.schema());
    let consistent = teardown(w);
    out.check(
        "every session closed consistent with the conceptual state",
        consistent && spares_consistent,
    );

    let (recovery_times, report, recovered) = svc::timed_recovery(
        &schema,
        &image,
        views,
        &config(),
        &expected,
        &expected_views,
        RECOVERY_REPS,
    );
    out.check(
        "recovery from the synced device prefixes reproduces the state and both views",
        recovered,
    );
    let recovery_s = median(&recovery_times);
    out.note(format!(
        "restart: median of {} recoveries, {:.4}-{:.4} s",
        recovery_times.len(),
        quantile(&recovery_times, 0.0),
        quantile(&recovery_times, 1.0)
    ));
    out.metric("recovery_s", recovery_s, "s");
    out.metric("batch_s", recovery_s, "s");
    if let Some(r) = report {
        out.metric("recovery.replayed_bytes", r.replayed_bytes as f64, "B");
        out.metric(
            "recovery.chained_checkpoints",
            r.chained_checkpoints as f64,
            "count",
        );
    }
    if args.trace {
        svc::write_spans(&mut out, &tracer, "multi_model", args.seed);
    }
    out
}
