//! `ingest`: graph-only writes over the wire into a 2-shard service
//! holding about 2.3·10⁴ facts, with no external views.
//!
//! Many pre-opened graph sessions share two connections. Every request
//! is a single-op supervise toggle on an employee pair that no other
//! in-flight request touches, with both employees on the same shard, so
//! every admitted request commits under any interleaving. Incremental
//! checkpoints are requested every [`CHECKPOINT_EVERY`] requests and
//! every [`FULL_CHECKPOINT_EVERY`]-th one is full. Each phase holds the
//! checkpoints of a whole cycle ([`CYCLE`] requests), so every run
//! contains the same checkpoint and WAL-truncation work whatever the
//! timing.
//!
//! The run is a series of rounds, each of which does every kind of
//! measured work once:
//!
//! 1. open loop: one cycle of Poisson arrivals at [`FIXED_RATE`], timed
//!    from the scheduled send, sent by one pacer thread through a
//!    one-worker executor;
//! 2. closed loop: [`INFLIGHT`] requests kept in flight for
//!    [`CLOSED_REQUESTS`] requests, giving the saturated commit rate;
//! 3. restarts from the synced device bytes, each checked against the
//!    committed state;
//! 4. one more set-up of a spare service, torn down at once.
//!
//! Every end-to-end figure is the median over the rounds. On a shared
//! host the CPU runs slower for stretches of several seconds; spreading
//! each kind of work over the whole run, rather than doing it in one
//! block, keeps such a stretch from deciding a figure.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dme_graph::EntityRef;
use dme_server::shard::shard_of;
use dme_server::wire::{Request, Response};
use dme_server::{Client, NetServer, RemoteSession, ServiceConfig, SessionKind, SessionService};
use dme_value::Atom;

use crate::stats::{median, quantile, tail, timed, Rng};
use crate::svc::{self, Devices};
use crate::trace::{self, now_ns, Tracer};
use crate::{Args, Outcome};

/// About 2.3·10⁴ facts in all. With 10⁵ facts, a restart took 0.5 s or
/// 0.9 s depending on the stretch of the run it fell in on a shared host,
/// and checkpoint stalls decided the commit tail.
const EMPLOYEES: usize = 10_000;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const SESSIONS: usize = 256;
/// Offered rate of the open-loop phase, below the knee.
const FIXED_RATE: f64 = 400.0;
/// Requests kept in flight by the closed-loop phase.
const INFLIGHT: usize = 32;
/// A run whose pacer p99 lateness exceeds this, or a quarter of the
/// commit p99 it qualifies, is invalid. The in-process generator shares
/// the CPUs and the allocator with the service, and runs late while the
/// service clones its state after a full checkpoint.
const LAG_BOUND_MS: f64 = 5.0;
/// Every this many requests, one is a checkpoint request.
const CHECKPOINT_EVERY: usize = 400;
const FULL_CHECKPOINT_EVERY: u64 = 2;
/// Requests from one full checkpoint to the next.
const CYCLE: usize = CHECKPOINT_EVERY * FULL_CHECKPOINT_EVERY as usize;
/// Requests of one closed-loop phase: a cycle and half a checkpoint
/// interval more, so every restart replays WAL written after the last
/// checkpoint. A phase still holds a whole cycle's checkpoints, so every
/// round takes the same incremental and full ones.
const CLOSED_REQUESTS: usize = CYCLE + CHECKPOINT_EVERY / 2;
/// Set-ups before the first round; every round adds one more.
const SETUP_REPS: usize = 3;
/// Restarts per round.
const RECOVERY_REPS: usize = 2;
/// Approximate wall time of one round, from which the round count
/// follows.
const ROUND_S: f64 = 2.9;
const PROBE_COMMITS: usize = 100;
const CODEC_SAMPLE: usize = 256;
/// Stated tolerance for layer self-time medians summing to the traced
/// commit median.
pub const PATH_TOLERANCE_PCT: f64 = 25.0;

struct World {
    service: SessionService,
    server: NetServer,
    clients: Vec<Client>,
    sessions: Vec<RemoteSession>,
    devices: Devices,
    /// Same-shard employee pairs; the last one is reserved for the probe.
    pairs: Vec<(String, String)>,
    present: Vec<bool>,
    open_us: Vec<f64>,
    facts: usize,
}

fn config() -> ServiceConfig {
    ServiceConfig::builder()
        .shards(SHARDS)
        .queue_depth(1 << 16)
        .full_checkpoint_every(FULL_CHECKPOINT_EVERY)
        .lockstep_verify(false)
        .build()
        .expect("ingest service config is valid")
}

fn setup(seed: u64, trace: bool) -> World {
    let cfg = dme_workload::ShopConfig {
        employees: EMPLOYEES,
        machines: EMPLOYEES * 2 / 3,
        supervisions: 0,
        seed,
    };
    let state = dme_workload::graph_state(cfg);
    let (entities, associations) = state.sizes();
    let mut buckets = vec![Vec::new(); SHARDS];
    for i in 0..EMPLOYEES {
        let name = format!("E{i:05}");
        let r = EntityRef::new("employee", Atom::str(name.clone()));
        buckets[shard_of(&r, SHARDS)].push(name);
    }
    let mut rng = Rng::new(seed, 1);
    let mut pairs: Vec<(String, String)> = Vec::new();
    for mut bucket in buckets {
        rng.shuffle(&mut bucket);
        pairs.extend(bucket.chunks_exact(2).map(|c| (c[0].clone(), c[1].clone())));
    }
    rng.shuffle(&mut pairs);
    let (wals, cp, devices) = svc::devices(SHARDS, trace);
    let service = SessionService::new_sharded(state, Vec::new(), config(), wals, cp)
        .expect("ingest service boots");
    let server = NetServer::serve(service.clone());
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| server.connect().expect("connection opens"))
        .collect();
    let mut open_us = Vec::with_capacity(SESSIONS);
    let sessions: Vec<RemoteSession> = (0..SESSIONS)
        .map(|i| {
            let t = now_ns();
            let s = clients[i % CONNECTIONS]
                .open_session(SessionKind::Graph)
                .expect("session opens");
            open_us.push((now_ns() - t) as f64 / 1e3);
            s
        })
        .collect();
    // The first commit after a full checkpoint copies the state; the
    // boot checkpoint is full, so one commit and its inverse finish the
    // boot here rather than in the first timed requests.
    let warm = pairs.last().expect("pairs");
    for insert in [true, false] {
        sessions[0]
            .submit_graph(vec![svc::toggle(warm, insert)])
            .expect("warm-up commit");
    }
    let present = vec![false; pairs.len()];
    World {
        service,
        server,
        clients,
        sessions,
        devices,
        pairs,
        present,
        open_us,
        facts: entities + associations,
    }
}

/// Closes every session (server-side sessions hold the service), then
/// stops the server and joins its threads.
fn teardown(w: World) {
    for s in w.sessions {
        let _ = s.close();
    }
    drop(w.clients);
    w.server.shutdown();
}

enum Got {
    Committed { lsn: u64 },
    Checkpoint,
    Shed,
    Error(String),
}

struct Rec {
    /// When the request was due (open loop) or sent (closed loop).
    sched: u64,
    /// When the pacer released it.
    released: u64,
    start: u64,
    end: u64,
    got: Got,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        (self.end - self.sched) as f64 / 1e6
    }
    fn committed(&self) -> bool {
        matches!(self.got, Got::Committed { .. })
    }
}

/// Sleeps, then yields, until `due` on the span clock.
fn pace_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let wait = due - now;
        if wait > 150_000 {
            std::thread::sleep(std::time::Duration::from_nanos(wait - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The next `n` requests: every [`CHECKPOINT_EVERY`]-th is a checkpoint
/// (the operator's periodic checkpoint, so every run takes the same
/// checkpoints at the same places); the others toggle consecutive unused
/// pairs on round-robin sessions.
fn requests(w: &World, n: usize, rng: &mut Rng) -> (Vec<Request>, Vec<Option<usize>>) {
    let usable = w.pairs.len() - 1;
    assert!(n <= usable, "one pair per request in a phase");
    let first = (rng.next_u64() as usize) % usable;
    let pairs: Vec<Option<usize>> = (0..n)
        .map(|k| ((k + 1) % CHECKPOINT_EVERY != 0).then_some((first + k) % usable))
        .collect();
    let reqs = pairs
        .iter()
        .enumerate()
        .map(|(k, p)| match *p {
            Some(p) => Request::SubmitGraph {
                session: w.sessions[k % SESSIONS].id(),
                ops: vec![svc::toggle(&w.pairs[p], !w.present[p])],
            },
            None => Request::Checkpoint,
        })
        .collect();
    (reqs, pairs)
}

fn settle(
    w: &mut World,
    pair: Option<usize>,
    request: Request,
    got: Result<Response, dme_server::ServerError>,
    codec_sample: &mut Vec<(Request, Response)>,
) -> Got {
    match (got, pair) {
        (Ok(Response::CheckpointTaken), None) => Got::Checkpoint,
        (Ok(Response::Committed(info)), Some(pair)) => {
            w.present[pair] = !w.present[pair];
            if codec_sample.len() < CODEC_SAMPLE {
                codec_sample.push((request, Response::Committed(info)));
            }
            Got::Committed { lsn: info.lsn }
        }
        (Ok(Response::Overloaded { .. }), _) => Got::Shed,
        (Ok(other), _) => Got::Error(format!("{other:?}")),
        (Err(e), _) => Got::Error(e.to_string()),
    }
}

/// The open-loop phase: `n` Poisson arrivals at `rate`.
fn open_loop(
    w: &mut World,
    rate: f64,
    n: usize,
    rng: &mut Rng,
    codec_sample: &mut Vec<(Request, Response)>,
) -> Vec<Rec> {
    let (reqs, pairs) = requests(w, n, rng);
    let mut t = 0.0;
    let offsets: Vec<u64> = (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            (t * 1e9) as u64
        })
        .collect();
    let executor = smol::Executor::new(1);
    let t0 = now_ns() + 1_000_000;
    let mut tasks = Vec::with_capacity(n);
    for ((k, request), off) in reqs.into_iter().enumerate().zip(&offsets) {
        pace_until(t0 + off);
        let released = now_ns();
        let client = w.clients[k % CONNECTIONS].clone();
        tasks.push(executor.spawn(async move {
            let start = now_ns();
            let got = client.call(&request).await;
            (request, got, released, start, now_ns())
        }));
    }
    let mut recs = Vec::with_capacity(n);
    for ((task, off), pair) in tasks.into_iter().zip(&offsets).zip(pairs) {
        let (request, got, released, start, end) = smol::block_on(task);
        let got = settle(w, pair, request, got, codec_sample);
        recs.push(Rec {
            sched: t0 + off,
            released,
            start,
            end,
            got,
        });
    }
    drop(executor);
    recs
}

/// The closed-loop phase: [`INFLIGHT`] callers on a one-worker executor,
/// each sending its next request when the previous one returns, until
/// `n` requests were sent. Returns the records and the wall time.
fn closed_loop(
    w: &mut World,
    n: usize,
    rng: &mut Rng,
    codec_sample: &mut Vec<(Request, Response)>,
) -> (Vec<Rec>, f64) {
    let (reqs, pairs) = requests(w, n, rng);
    let reqs = Arc::new(reqs);
    let next = Arc::new(AtomicUsize::new(0));
    let executor = smol::Executor::new(1);
    let t0 = now_ns();
    let tasks: Vec<_> = (0..INFLIGHT)
        .map(|c| {
            let (reqs, next) = (Arc::clone(&reqs), Arc::clone(&next));
            let client = w.clients[c % CONNECTIONS].clone();
            executor.spawn(async move {
                let mut done = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= reqs.len() {
                        return done;
                    }
                    let start = now_ns();
                    let got = client.call(&reqs[k]).await;
                    done.push((k, got, start, now_ns()));
                }
            })
        })
        .collect();
    let mut results: Vec<_> = tasks.into_iter().flat_map(smol::block_on).collect();
    let wall_s = (now_ns() - t0) as f64 / 1e9;
    drop(executor);
    results.sort_by_key(|r| r.0);
    let recs = results
        .into_iter()
        .map(|(k, got, start, end)| Rec {
            sched: start,
            released: start,
            start,
            end,
            got: settle(w, pairs[k], reqs[k].clone(), got, codec_sample),
        })
        .collect();
    (recs, wall_s)
}

fn committed_latencies(recs: &[Rec]) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.committed())
        .map(Rec::latency_ms)
        .collect()
}

/// The worst commit latency among requests scheduled while a checkpoint
/// request was in flight.
fn checkpoint_stall_max(recs: &[Rec]) -> f64 {
    let windows: Vec<(u64, u64)> = recs
        .iter()
        .filter(|r| matches!(r.got, Got::Checkpoint))
        .map(|r| (r.start, r.end))
        .collect();
    recs.iter()
        .filter(|r| r.committed() && windows.iter().any(|&(a, b)| r.sched >= a && r.sched <= b))
        .map(Rec::latency_ms)
        .fold(0.0, f64::max)
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
    let rounds = ((args.seconds / ROUND_S).round() as usize).max(2);
    out.note(format!(
        "ingest: {} facts, {SHARDS} shards, {SESSIONS} graph sessions over {CONNECTIONS} \
         connections; {rounds} rounds, each of {CYCLE} open-loop requests at {FIXED_RATE} \
         txn/s (Poisson), {CLOSED_REQUESTS} closed-loop requests at {INFLIGHT} in flight, \
         {RECOVERY_REPS} restarts and one spare set-up; device sync {} us; checkpoint every \
         {CHECKPOINT_EVERY} requests, a full one every {FULL_CHECKPOINT_EVERY}",
        w.facts,
        crate::device::SYNC_DELAY_US
    ));
    let schema = Arc::clone(w.service.schema());
    let tracer = Tracer::new(args.trace);
    let mut rng = Rng::new(args.seed, 2);
    let mut codec_sample = Vec::new();
    let mut all: Vec<Rec> = Vec::new();

    // A traced run traces the open loop of its second half of rounds.
    let traced_from = if args.trace { rounds / 2 } else { rounds };
    let (mut fixed, mut traced) = (Vec::new(), Vec::new());
    let (mut p50s, mut p95s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut recovery_times = Vec::new();
    let (mut recovered, mut report) = (true, None);
    let mut stall_max = 0.0f64;
    for round in 0..rounds {
        let recs = open_loop(&mut w, FIXED_RATE, CYCLE, &mut rng, &mut codec_sample);
        let lat = committed_latencies(&recs);
        p50s.push(median(&lat));
        p95s.extend(tail(&lat, 0.95));
        stall_max = stall_max.max(checkpoint_stall_max(&recs));
        if round < traced_from {
            fixed.extend(recs);
        } else {
            traced.extend(recs);
        }

        let (recs, wall_s) = closed_loop(&mut w, CLOSED_REQUESTS, &mut rng, &mut codec_sample);
        rates.push(recs.iter().filter(|r| r.committed()).count() as f64 / wall_s);
        all.extend(recs);

        // The restart: recovery from the synced bytes alone, while no
        // request is in flight.
        let image = w.devices.synced_image();
        let expected = w.service.conceptual();
        let (times, r, ok) = svc::timed_recovery(
            &schema,
            &image,
            Vec::new,
            &config(),
            &expected,
            &[],
            RECOVERY_REPS,
        );
        recovery_times.extend(times);
        recovered &= ok;
        report = r.or(report);

        teardown(timed(&mut setup_times, spawn));
    }
    out.metric("setup_s", median(&setup_times), "s");

    let fixed_lat = committed_latencies(&fixed);
    let lateness: Vec<f64> = fixed
        .iter()
        .map(|r| (r.released - r.sched) as f64 / 1e6)
        .collect();
    let lag_p99 = quantile(&lateness, 0.99);
    let commit_p50 = median(&p50s);
    out.note(format!(
        "open loop: {} requests, {} committed; pacer lateness p99 {lag_p99:.3} ms; \
         executor start delay p99 {:.3} ms",
        fixed.len(),
        fixed_lat.len(),
        quantile(
            &fixed
                .iter()
                .map(|r| (r.start - r.released) as f64 / 1e6)
                .collect::<Vec<_>>(),
            0.99
        )
    ));
    let per_round = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note(format!("open loop per round: p50 ms {}", per_round(&p50s)));
    out.note(format!("open loop per round: p95 ms {}", per_round(&p95s)));
    // p50 and p95 are medians of the rounds' own; p99, which the full
    // checkpoints' stalls decide, pools the untraced rounds.
    out.metric("commit_p50_ms", commit_p50, "ms");
    out.metric("op_p50_ms", commit_p50, "ms");
    if !p95s.is_empty() {
        out.metric("commit_p95_ms", median(&p95s), "ms");
    }
    let p99 = tail(&fixed_lat, 0.99);
    if let Some(v) = p99 {
        out.metric("commit_p99_ms", v, "ms");
    }
    let lag_bound = LAG_BOUND_MS.max(0.25 * p99.unwrap_or(0.0));
    out.validity(
        format!("open-loop pacer lateness p99 {lag_p99:.3} ms within {lag_bound:.1} ms"),
        lag_p99 <= lag_bound,
    );
    out.metric("loadgen.lag_ms_p99", lag_p99, "ms");
    out.metric("device.checkpoint_stall_ms_max", stall_max, "ms");

    // Commits outside the load: the two warm-up commits, and the probe.
    let mut other_commits = 2usize;
    if args.trace {
        let mut by_lsn = HashMap::new();
        for (i, r) in traced.iter().enumerate() {
            let Got::Committed { lsn } = r.got else {
                continue;
            };
            let request = i as u64 + 1;
            let root = tracer.record("ingest.commit", 0, request, r.sched, r.end);
            tracer.record("loadgen.lag", root, request, r.sched, r.start);
            let call = tracer.record("net.call", root, request, r.start, r.end);
            by_lsn.insert(lsn, (request, call));
        }
        w.devices.attach_spans(&tracer, &by_lsn);
        let traced_p50 = median(&committed_latencies(&traced));
        out.metric(
            "trace.overhead_pct",
            (traced_p50 / median(&fixed_lat) - 1.0) * 100.0,
            "%",
        );
        let split = trace::path_split(&tracer.spans(), "ingest.commit");
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
        let probe_pair = w.pairs.len() - 1;
        match svc::call_vs_handle(
            &w.service,
            &w.clients[0],
            &tracer,
            &w.pairs[probe_pair],
            w.present[probe_pair],
            PROBE_COMMITS,
            &w.devices,
        ) {
            Ok((call_us, handle_us, self_us)) => {
                // An even number of toggles leaves the probe pair as it was.
                other_commits += 2 * PROBE_COMMITS;
                out.metric("net.rtt_overhead_us_p50", call_us - handle_us, "us");
                out.metric("service.handle_us_p50", handle_us, "us");
                out.metric("service.self_us_per_txn", self_us, "us");
            }
            Err(e) => out.check(format!("call-versus-handle probe: {e}"), false),
        }
    }
    all.extend(fixed);
    all.extend(traced);
    // The saturated rate is the median round's closed-loop rate.
    let tps = median(&rates);
    out.note(format!(
        "closed loop: {rounds} cycles at {:.0}-{:.0} txn/s",
        quantile(&rates, 0.0),
        quantile(&rates, 1.0)
    ));
    out.metric("saturated_tps", tps, "txn/s");
    out.metric("ops_per_s", tps, "1/s");

    // Correctness: acknowledgements against the committed history and
    // the conceptual state against the acknowledged toggles.
    let shed = all.iter().filter(|r| matches!(r.got, Got::Shed)).count();
    let errors: Vec<&String> = all
        .iter()
        .filter_map(|r| match &r.got {
            Got::Error(e) => Some(e),
            _ => None,
        })
        .collect();
    if let Some(e) = errors.first() {
        out.note(format!("first failed request: {e}"));
        eprintln!("perfbench: first failed request: {e}");
    }
    out.attempted = all.len() as u64;
    out.failed = (shed + errors.len()) as u64;
    out.metric("shard.shed_count", shed as f64, "count");
    let acked: HashSet<u64> = all
        .iter()
        .filter_map(|r| match r.got {
            Got::Committed { lsn } => Some(lsn),
            _ => None,
        })
        .collect();
    let history = w.service.committed_history();
    let in_history: HashSet<u64> = history.iter().map(|t| t.lsn).collect();
    out.check(
        format!(
            "{} acked commits all in committed_history ({} entries incl. {other_commits} \
             warm-up and probe)",
            acked.len(),
            history.len()
        ),
        acked.is_subset(&in_history) && history.len() == acked.len() + other_commits,
    );
    let expected = w.service.conceptual();
    let toggles_hold = w
        .pairs
        .iter()
        .zip(&w.present)
        .all(|(p, &on)| expected.has_association(&svc::supervise(&p.0, &p.1)) == on);
    out.check(
        "conceptual state holds exactly the acknowledged toggles",
        toggles_hold,
    );

    // Device and storage figures for the whole run.
    let txns = history.len() as u64;
    w.devices.layer_metrics(&mut out, txns);
    out.metric("session.open_us_p50", median(&w.open_us), "us");
    let (codec_us, codec_bytes) = svc::codec_cost(&codec_sample);
    out.metric("wire.codec_us_per_req", codec_us, "us");
    out.metric("wire.bytes_per_req", codec_bytes, "B");

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
    teardown(w);
    out.check(
        format!(
            "all {} recoveries from the synced device prefixes reproduce the committed state",
            rounds * RECOVERY_REPS
        ),
        recovered && recovery_times.len() == rounds * RECOVERY_REPS,
    );
    let recovery_s = median(&recovery_times);
    out.note(format!(
        "restart: median of {} recoveries over the run, {:.4}-{:.4} s",
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
        svc::write_spans(&mut out, &tracer, "ingest", args.seed);
    }
    out
}
