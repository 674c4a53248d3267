//! The equivalence-engine regression harness.
//!
//! Re-runs the Criterion `parallel_equiv` fixtures under hand-rolled
//! median timing (binaries cannot link the dev-dependency harness), adds
//! the instrumented scaling sweeps (state size × operation count ×
//! thread count) and the observer-overhead comparison, and writes the
//! whole record as `BENCH_equiv.json` at the repository root plus a
//! sample JSON-lines transcript under `target/`.
//!
//! Run with: `cargo run --release -p dme-bench --bin regression`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dme_core::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use dme_core::model::{graph_model, relational_model, FiniteModel};
use dme_core::obs::{Counter, JsonLinesSink, Metric, Observer, Report, RingSink};
use dme_core::witness;
use dme_core::{Checker, EquivKind, ParallelConfig, Tier};
use dme_graph::{Association, EntityRef, GraphOp, GraphState};
use dme_logic::{Fact, FactBase};
use dme_relation::{RelOp, RelationState, RelationalSchema};
use dme_server::{CommitMode, MemDevice, ServiceConfig, SessionKind, SessionService, ViewSpec};
use dme_value::Atom;

const STATE_CAP: usize = 4_000;
// 15 samples: enough that the interpolated p95 sits strictly inside the
// order statistics instead of collapsing onto the max (the old
// 5-sample nearest-rank quantiles reported p95_us == p99_us == max_us
// on every row, which made tail columns pure noise).
const SAMPLES: usize = 15;
/// Samples for the incremental re-check comparison, where every cold
/// sample is a full two-closure enumeration of a 2^14-state scenario.
const INC_SAMPLES: usize = 7;

/// Wall-clock summary of repeated runs, in microseconds. `median_us`
/// is kept alongside the quantile columns so older consumers of
/// `BENCH_equiv.json` keep working.
#[derive(Clone, Copy)]
struct Stats {
    median_us: u64,
    min_us: u64,
    max_us: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl Stats {
    fn from_samples(mut times: Vec<u64>) -> Stats {
        times.sort_unstable();
        // Linear-interpolated quantiles (R type 7): the quantile sits at
        // position q·(n−1) between order statistics. Unlike nearest-rank
        // at small n — which rounded every q ≥ (n−1)/n up to the max and
        // made the p95/p99 columns duplicates of max_us — the tail
        // quantiles stay strictly inside the sample unless the top
        // samples are genuinely tied.
        let pct = |q: f64| {
            let pos = q * (times.len() - 1) as f64;
            let lo = times[pos.floor() as usize] as f64;
            let hi = times[pos.ceil() as usize] as f64;
            (lo + (hi - lo) * pos.fract()).round() as u64
        };
        Stats {
            median_us: times[times.len() / 2],
            min_us: times[0],
            max_us: times[times.len() - 1],
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
        }
    }

    /// The shared JSON fragment every timed row carries.
    fn json_fields(&self) -> String {
        format!(
            "\"median_us\":{},\"min_us\":{},\"max_us\":{},\"p50_us\":{},\
             \"p95_us\":{},\"p99_us\":{}",
            self.median_us, self.min_us, self.max_us, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

/// Timing summary of `samples` runs of `f`.
fn time_us(samples: usize, mut f: impl FnMut()) -> Stats {
    Stats::from_samples(
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_micros() as u64
            })
            .collect(),
    )
}

fn rel_model(
    name: &str,
    schema: RelationalSchema,
    max_statements: usize,
) -> FiniteModel<RelationState, RelOp> {
    let ops = enumerate_rel_ops(&schema, max_statements);
    relational_model(name, RelationState::empty(Arc::new(schema)), ops)
}

/// The E-D6 fixture from `benches/parallel_equiv.rs`: the largest
/// data-model check in the suite.
#[allow(clippy::type_complexity)]
fn d6_fixture() -> (
    Vec<FiniteModel<RelationState, RelOp>>,
    Vec<FiniteModel<GraphState, GraphOp>>,
) {
    let ms = vec![
        rel_model("micro-rel", witness::micro_relational_schema(), 2),
        rel_model(
            "micro-rel-supervisors-supervised",
            witness::micro_relational_schema_supervisors_supervised(),
            2,
        ),
    ];
    let ns: Vec<FiniteModel<GraphState, GraphOp>> = witness::all_micro_graph_schemas()
        .into_iter()
        .enumerate()
        .filter(|(_, schema)| schema.participations().all(|(_, p)| !p.total))
        .map(|(i, schema)| {
            let schema = Arc::new(schema);
            let ops = enumerate_graph_ops(&schema);
            graph_model(format!("graph-{i}"), GraphState::empty(schema), ops)
        })
        .collect();
    (ms, ns)
}

/// A toy model over `facts` independent facts: its closure is the
/// powerset (2^facts states) and it has 2·facts operations — the
/// scaling knob for the sweeps.
fn powerset_model(name: &str, facts: usize) -> FiniteModel<FactBase, String> {
    let universe: BTreeMap<String, (bool, Fact)> = (0..facts as i64)
        .flat_map(|i| {
            let fact = Fact::new("p", [("x", Atom::Int(i))]);
            [
                (format!("+{fact}"), (true, fact.clone())),
                (format!("-{fact}"), (false, fact)),
            ]
        })
        .collect();
    let op_names: Vec<String> = universe.keys().cloned().collect();
    FiniteModel::new(name, FactBase::default(), op_names, move |op, s| {
        let (add, fact) = &universe[op];
        let mut next = s.clone();
        if *add {
            next.insert(fact.clone()).then_some(next)
        } else {
            next.remove(fact).then_some(next)
        }
    })
}

struct Timing {
    name: String,
    stats: Stats,
}

/// Session-service throughput: N concurrent graph sessions toggling
/// disjoint supervisions against a journal whose sync costs a fixed
/// latency, group commit vs per-operation commit. With disjoint work
/// the only contention is the journal itself, so the sync count (and
/// with it wall-clock) is the group-commit economy measure.
fn service_throughput() -> Vec<String> {
    use dme_core::translate::CompletionMode;

    const OPS_EACH: usize = 16;
    const SYNC_DELAY_US: u64 = 150;

    let cfg = dme_workload::ShopConfig {
        employees: 20,
        machines: 2,
        supervisions: 0,
        seed: 7,
    };
    let initial = dme_workload::graph_state(cfg);
    let views = || {
        vec![ViewSpec {
            name: "shop".into(),
            schema: dme_workload::relational_schema(cfg),
            mode: CompletionMode::Minimal,
        }]
    };
    // Session k owns the pair E{2k} -> E{2k+1}; its stream alternates
    // insert/delete so every submission is valid under any interleaving.
    fn toggle(k: usize, insert: bool) -> GraphOp {
        let assoc = Association::new(
            "supervise",
            [
                (
                    "agent",
                    EntityRef::new("employee", Atom::str(format!("E{:05}", 2 * k))),
                ),
                (
                    "object",
                    EntityRef::new("employee", Atom::str(format!("E{:05}", 2 * k + 1))),
                ),
            ],
        );
        if insert {
            GraphOp::InsertAssociation(assoc)
        } else {
            GraphOp::DeleteAssociation(assoc)
        }
    }

    let mut rows = Vec::new();
    for sessions in [1usize, 2, 4, 8] {
        let mut row = BTreeMap::new();
        for mode in [CommitMode::Group, CommitMode::PerOp] {
            let mut syncs = 0u64;
            // Per-transaction latency comes from the service's own
            // commit-latency histogram, accumulated across all sampled
            // runs — wall-clock percentiles of individual commits, not
            // of whole runs.
            let obs = Observer::new(RingSink::with_capacity(64));
            let (stats, commit_hist) = {
                let stats = time_us(SAMPLES, || {
                    let service = SessionService::new(
                        initial.clone(),
                        views(),
                        ServiceConfig {
                            commit_mode: mode,
                            obs: obs.clone(),
                            ..ServiceConfig::default()
                        },
                        Box::new(
                            MemDevice::new()
                                .with_sync_delay(std::time::Duration::from_micros(SYNC_DELAY_US)),
                        ),
                        Box::new(MemDevice::new()),
                    )
                    .expect("service boots");
                    std::thread::scope(|scope| {
                        for k in 0..sessions {
                            let service = service.clone();
                            scope.spawn(move || {
                                let mut sess = service
                                    .open_session(SessionKind::Graph)
                                    .expect("session admits");
                                for i in 0..OPS_EACH {
                                    sess.submit_graph(vec![toggle(k, i % 2 == 0)])
                                        .expect("disjoint toggles commit");
                                }
                                sess.close().expect("graceful teardown");
                            });
                        }
                    });
                    assert_eq!(
                        service.committed_history().len(),
                        sessions * OPS_EACH,
                        "every submission commits"
                    );
                    syncs = service.wal_syncs();
                });
                (stats, obs.histogram(Metric::CommitLatency))
            };
            let label = match mode {
                CommitMode::Group => "group",
                CommitMode::PerOp => "per_op",
            };
            println!(
                "service/sessions={sessions}/{label}: {}µs (commit p50/p95/p99 {}/{}/{}µs, \
                 {syncs} wal syncs, {} txns)",
                stats.median_us,
                commit_hist.p50(),
                commit_hist.p95(),
                commit_hist.p99(),
                sessions * OPS_EACH
            );
            row.insert(
                label,
                format!(
                    "\"{label}\":{{{},\"wal_syncs\":{syncs},{}}}",
                    stats.json_fields(),
                    json_histogram("commit_latency_us", &commit_hist)
                ),
            );
        }
        rows.push(format!(
            "{{\"sessions\":{sessions},\"txns\":{},\"sync_delay_us\":{SYNC_DELAY_US},{},{}}}",
            sessions * OPS_EACH,
            row["group"],
            row["per_op"]
        ));
    }
    rows
}

/// Open-loop scaling of the networked front door: 10⁴ pre-opened
/// sessions fire disjoint single-op transactions on a heavy-tailed
/// (bounded-Pareto) arrival schedule at a rate chosen to saturate one
/// shard, against 1 vs 4 shards. Open-loop means latency is measured
/// from the *scheduled* arrival, not the actual send — queueing delay
/// under overload is part of the number, as it is for real clients.
/// Every request gets a typed response (commit or `Overloaded`); the
/// per-request record is written as a JSON-lines transcript under
/// `target/` for the CI artifact.
fn service_scaling(root: &Path) -> Vec<String> {
    use dme_server::wire::{Request, Response};
    use dme_server::NetServer;
    use rand::{Rng, SeedableRng, StdRng};
    use std::sync::Mutex;
    use std::time::Duration;

    const SESSIONS: usize = 10_000;
    const REQUESTS: usize = 2_400;
    const OPENERS: usize = 16;
    const SYNC_DELAY_US: u64 = 800;
    const QUEUE_DEPTH: usize = 512;
    /// Bounded Pareto α and x_max/x_min ratio for inter-arrival gaps.
    const ALPHA: f64 = 1.5;
    const TAIL_RATIO: f64 = 100.0;
    /// Mean inter-arrival ≈ 250µs → ~4k req/s offered, vs ~1.25k/s
    /// single-shard service capacity (one WAL sync per commit through
    /// one lane).
    const MEAN_GAP_US: f64 = 250.0;

    // Each request inserts one supervision between a disjoint pair of
    // employees, so every non-shed request commits regardless of
    // interleaving. The workload is *partitionable*: pairs are chosen
    // co-resident under the 4-shard layout (and interleaved round-robin
    // across shards), so a transaction's shard set is a singleton in
    // every run — the row measures shard scalability, not the cost of
    // cross-shard journaling — and the op stream is identical across
    // shard counts.
    let cfg = dme_workload::ShopConfig {
        employees: 2 * REQUESTS + 8,
        machines: 2,
        supervisions: 0,
        seed: 7,
    };
    let initial = dme_workload::graph_state(cfg);
    let pairs: Vec<(String, String)> = {
        let mut buckets: Vec<Vec<String>> = vec![Vec::new(); 4];
        for i in 0..cfg.employees {
            let name = format!("E{i:05}");
            let r = EntityRef::new("employee", Atom::str(name.clone()));
            buckets[dme_server::shard::shard_of(&r, 4)].push(name);
        }
        let mut per_bucket: Vec<Vec<(String, String)>> = buckets
            .iter()
            .map(|b| {
                b.chunks_exact(2)
                    .map(|c| (c[0].clone(), c[1].clone()))
                    .collect()
            })
            .collect();
        let mut pairs = Vec::with_capacity(REQUESTS);
        let mut k = 0;
        while pairs.len() < REQUESTS {
            assert!(
                per_bucket.iter().any(|b| !b.is_empty()),
                "enough co-located employee pairs for the request count"
            );
            if let Some(p) = per_bucket[k % 4].pop() {
                pairs.push(p);
            }
            k += 1;
        }
        pairs
    };
    let insert_pair = |i: usize| {
        let (a, b) = &pairs[i];
        GraphOp::InsertAssociation(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str(a.clone()))),
                ("object", EntityRef::new("employee", Atom::str(b.clone()))),
            ],
        ))
    };

    // The arrival schedule, in µs offsets from the run start. Bounded
    // Pareto by inverse CDF, scaled so x_min hits the target mean.
    let x_min = {
        // E[X] for bounded Pareto, as a multiple of x_min.
        let r = TAIL_RATIO.powf(1.0 - ALPHA);
        let mean_over_xmin = ALPHA / (ALPHA - 1.0) * (1.0 - r) / (1.0 - TAIL_RATIO.powf(-ALPHA));
        MEAN_GAP_US / mean_over_xmin
    };
    let mut rng = StdRng::seed_from_u64(2026);
    let mut uniform = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut at = 0.0f64;
    let schedule: Vec<u64> = (0..REQUESTS)
        .map(|_| {
            let u = uniform();
            let gap = x_min * (1.0 - u * (1.0 - TAIL_RATIO.powf(-ALPHA))).powf(-1.0 / ALPHA);
            at += gap;
            at as u64
        })
        .collect();

    let mut rows = Vec::new();
    let mut throughput = BTreeMap::new();
    let mut p99s = BTreeMap::new();
    for shards in [1usize, 4] {
        let wals: Vec<Box<dyn dme_server::LogDevice>> = (0..shards)
            .map(|_| {
                Box::new(MemDevice::new().with_sync_delay(Duration::from_micros(SYNC_DELAY_US)))
                    as Box<dyn dme_server::LogDevice>
            })
            .collect();
        let service = SessionService::new_sharded(
            initial.clone(),
            Vec::new(),
            ServiceConfig {
                shards,
                queue_depth: QUEUE_DEPTH,
                ..ServiceConfig::default()
            },
            wals,
            Box::new(MemDevice::new()),
        )
        .expect("service boots");
        let server = NetServer::serve(service.clone());
        let clients: Vec<_> = (0..4).map(|_| server.connect().expect("connect")).collect();

        // Pre-open the full session population.
        let session_ids = Mutex::new(Vec::with_capacity(SESSIONS));
        std::thread::scope(|scope| {
            for t in 0..OPENERS {
                let clients = &clients;
                let session_ids = &session_ids;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(SESSIONS / OPENERS);
                    for _ in 0..SESSIONS / OPENERS {
                        let sess = clients[t % clients.len()]
                            .open_session(SessionKind::Graph)
                            .expect("session admits");
                        mine.push(sess);
                    }
                    session_ids.lock().unwrap().append(&mut mine);
                });
            }
        });
        let sessions = session_ids.into_inner().unwrap();
        assert_eq!(service.open_sessions(), SESSIONS as u64);

        // Fire the open loop: a pacer thread spawns one async call per
        // scheduled arrival onto the executor; completions are recorded
        // against the *scheduled* time.
        let executor = smol::Executor::new(4);
        // (scheduled µs, latency-from-schedule µs, outcome).
        type LoadRecords = Arc<Mutex<Vec<(u64, u64, &'static str)>>>;
        let records: LoadRecords = Arc::new(Mutex::new(Vec::with_capacity(REQUESTS)));
        let start = Instant::now();
        let mut handles = Vec::with_capacity(REQUESTS);
        for (i, &t_us) in schedule.iter().enumerate() {
            loop {
                let now = start.elapsed().as_micros() as u64;
                if now >= t_us {
                    break;
                }
                let wait = t_us - now;
                if wait > 200 {
                    std::thread::sleep(Duration::from_micros(wait - 150));
                } else {
                    std::hint::spin_loop();
                }
            }
            let client = clients[i % clients.len()].clone();
            let session = sessions[i % SESSIONS].id();
            let records = Arc::clone(&records);
            let op = insert_pair(i);
            handles.push(executor.spawn(async move {
                let request = Request::SubmitGraph {
                    session,
                    ops: vec![op],
                };
                let outcome = match client.call(&request).await {
                    Ok(Response::Committed(_)) => "committed",
                    Ok(Response::Overloaded { .. }) => "shed",
                    _ => "error",
                };
                let latency = start.elapsed().as_micros() as u64 - t_us;
                records.lock().unwrap().push((t_us, latency, outcome));
            }));
        }
        for handle in handles {
            smol::block_on(handle);
        }
        let records = records.lock().unwrap().clone();
        drop(executor);

        // Tear the population down before reading the verdict.
        let mut batches: Vec<Vec<_>> = (0..OPENERS).map(|_| Vec::new()).collect();
        for (i, sess) in sessions.into_iter().enumerate() {
            batches[i % OPENERS].push(sess);
        }
        std::thread::scope(|scope| {
            for batch in batches {
                scope.spawn(move || {
                    for sess in batch {
                        sess.close().expect("graceful teardown");
                    }
                });
            }
        });
        assert_eq!(service.open_sessions(), 0, "clean global teardown");
        let committed = records.iter().filter(|r| r.2 == "committed").count();
        let shed = records.iter().filter(|r| r.2 == "shed").count();
        let errors = records.len() - committed - shed;
        assert_eq!(
            records.len(),
            REQUESTS,
            "every request got a typed response"
        );
        assert_eq!(errors, 0, "no transport or server errors under load");
        assert_eq!(
            service.committed_history().len(),
            committed,
            "wire acks match the committed history"
        );

        let wall_us = records
            .iter()
            .map(|(t, l, _)| t + l)
            .max()
            .unwrap_or(1)
            .max(1);
        let tps = committed as f64 * 1_000_000.0 / wall_us as f64;
        let latencies: Vec<u64> = records
            .iter()
            .filter(|r| r.2 == "committed")
            .map(|r| r.1)
            .collect();
        let stats = Stats::from_samples(latencies);
        println!(
            "service_scaling/shards={shards}: {committed} committed, {shed} shed, \
             {tps:.0} tx/s, latency p50/p95/p99 {}/{}/{}µs",
            stats.p50_us, stats.p95_us, stats.p99_us
        );

        // Per-request transcript for the CI artifact.
        let transcript = root.join(format!("target/loadgen-{shards}shard.jsonl"));
        let mut body = String::with_capacity(REQUESTS * 64);
        for (i, (t_us, latency_us, outcome)) in records.iter().enumerate() {
            body.push_str(&format!(
                "{{\"i\":{i},\"shards\":{shards},\"scheduled_us\":{t_us},\
                 \"latency_us\":{latency_us},\"outcome\":\"{outcome}\"}}\n"
            ));
        }
        std::fs::create_dir_all(transcript.parent().unwrap()).ok();
        std::fs::write(&transcript, body).expect("write loadgen transcript");
        println!("  transcript: {}", transcript.display());

        throughput.insert(shards, tps);
        p99s.insert(shards, stats.p99_us);
        rows.push(format!(
            "{{\"shards\":{shards},\"sessions\":{SESSIONS},\"requests\":{REQUESTS},\
             \"sync_delay_us\":{SYNC_DELAY_US},\"queue_depth\":{QUEUE_DEPTH},\
             \"arrival_mean_us\":{MEAN_GAP_US},\"pareto_alpha\":{ALPHA},\
             \"committed\":{committed},\"shed\":{shed},\"errors\":{errors},\
             \"throughput_tps\":{tps:.1},\"latency_us\":{{{}}}}}",
            stats.json_fields()
        ));

        drop(clients);
        server.shutdown();
    }

    // The scaling gate: 4 shards must at least double saturated
    // single-shard committed throughput, and the scaled service's tail
    // must hold the measured SLO under the same offered load: p99
    // lands at 188-205 ms in release on an idle reference box and
    // 372 ms with a concurrent test suite stealing half the cores, so
    // 750 ms is ~2x the contended worst case (down from the 2 s
    // placeholder the row first shipped with).
    let (t1, t4) = (throughput[&1], throughput[&4]);
    assert!(
        t4 >= 2.0 * t1,
        "4-shard throughput {t4:.0} tx/s < 2x single-shard {t1:.0} tx/s"
    );
    assert!(
        p99s[&4] <= 750_000,
        "4-shard p99 {}µs blows the 750ms SLO",
        p99s[&4]
    );
    println!(
        "service_scaling gate: {t4:.0} >= 2x {t1:.0} tx/s, p99(4 shards) {}µs within SLO",
        p99s[&4]
    );
    rows
}

fn json_timing(t: &Timing) -> String {
    format!("\"{}\":{{{}}}", t.name, t.stats.json_fields())
}

/// MVCC storage-engine guards. Two gated rows:
///
/// - `snapshot_open`: opening a session pins an LSN and shares the
///   committed state — it must NOT clone it. The gate holds the p50 of
///   a 64-open batch flat (≤1.2× + slack) between a 10⁴-fact and a
///   10⁶-fact state; a state-sized copy anywhere on the open path
///   blows it by orders of magnitude. Graph sessions carry the gate:
///   materializing a *relational view over* a 10⁶-fact state is
///   O(facts²) at boot (every fact state-completed against every
///   other), which prices the fixture, not the open, out of CI — the
///   relational open path rides the same pin and is held flat by the
///   conformance suite instead.
/// - `recovery_slo`: recovery cost must scale with WAL bytes since the
///   checkpoint, not with history. The *marginal* cost — cold recovery
///   (boot checkpoint + full replay) minus warm recovery (fresh
///   checkpoint, zero replay) over the replayed megabytes — is gated in
///   ms/MB, which nets out the state-sized fixed costs both pay.
///
/// Returns the `storage_engine` JSON object.
fn storage_engine() -> String {
    const OPENS_PER_SAMPLE: usize = 64;
    /// Marginal replay SLO: measured ~63 ms/MB in release on the
    /// reference box (in-place delta replay); ~3× headroom for slower
    /// CI hosts.
    const SLO_MS_PER_MB: f64 = 200.0;

    // ---- snapshot_open: p50 flat in state size ----------------------
    // ShopConfig::scaled(n) yields ~2.7 facts per scale unit.
    let open_stats = |scale: usize| -> (usize, Stats) {
        let cfg = dme_workload::ShopConfig::scaled(scale);
        let initial = dme_workload::graph_state(cfg);
        let (entities, assocs) = initial.sizes();
        let service = SessionService::new(
            initial,
            Vec::new(),
            ServiceConfig {
                lockstep_verify: false,
                ..ServiceConfig::default()
            },
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .expect("service boots");
        let stats = time_us(SAMPLES, || {
            let sessions: Vec<_> = (0..OPENS_PER_SAMPLE)
                .map(|_| {
                    service
                        .open_session(SessionKind::Graph)
                        .expect("session admits")
                })
                .collect();
            drop(sessions);
        });
        (entities + assocs, stats)
    };
    let (facts_small, small) = open_stats(3_800);
    let (facts_large, large) = open_stats(375_000);
    assert!(facts_small >= 10_000 && facts_large >= 1_000_000);
    // 1.2× plus 100µs absolute slack across the 64-open batch (sub-µs
    // per-open timings are quantization-noisy at the small end).
    let bound = (small.p50_us as f64 * 1.2 + 100.0) as u64;
    assert!(
        large.p50_us <= bound,
        "snapshot_open is not flat in state size: p50 {}µs at {} facts vs {}µs at {} facts",
        large.p50_us,
        facts_large,
        small.p50_us,
        facts_small
    );
    println!(
        "snapshot_open: p50 {}µs @ {} facts -> {}µs @ {} facts (bound {}µs, {} opens/sample)",
        small.p50_us, facts_small, large.p50_us, facts_large, bound, OPENS_PER_SAMPLE
    );

    // ---- recovery_slo: marginal replay cost per WAL megabyte --------
    let cfg = dme_workload::ShopConfig::scaled(40_000);
    let initial = dme_workload::graph_state(cfg);
    let (entities, assocs) = initial.sizes();
    let rec_facts = entities + assocs;
    let config = ServiceConfig {
        lockstep_verify: false,
        ..ServiceConfig::default()
    };
    let service = SessionService::new(
        initial.clone(),
        Vec::new(),
        config.clone(),
        Box::new(MemDevice::new()),
        Box::new(MemDevice::new()),
    )
    .expect("service boots");
    let mut session = service
        .open_session(SessionKind::Graph)
        .expect("session admits");
    // Enough WAL (a few MB) that the replay marginal clears timer
    // noise over the ~half-second state-sized fixed cost both
    // recoveries pay (checkpoint decode + MVCC base load).
    let ops = dme_workload::supervision_toggle_ops(cfg, 60_000);
    let mut transactions = 0usize;
    for chunk in ops.chunks(50) {
        session
            .submit_graph(chunk.to_vec())
            .expect("toggle batch commits");
        transactions += 1;
    }
    drop(session);
    // Warm: checkpointed right here, so recovery replays ~nothing.
    service.checkpoint_now().expect("checkpoint");
    let warm_image = service.durable_image();
    // Cold: the same WAL with only the boot checkpoint.
    let (cp_records, _) = dme_storage::wal::replay_tolerant(&warm_image.checkpoint);
    let mut boot_only = Vec::new();
    dme_storage::wal::append_record_traced(
        &mut boot_only,
        cp_records[0].lsn,
        cp_records[0].trace,
        cp_records[0].payload,
    );
    let cold_image = dme_server::DurableImage {
        checkpoint: boot_only,
        ..warm_image.clone()
    };
    let recover = |image: &dme_server::DurableImage| {
        SessionService::recover(
            Arc::clone(initial.schema()),
            image,
            Vec::new(),
            config.clone(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .expect("recovery succeeds")
    };
    let replayed_bytes = recover(&cold_image).1.replayed_bytes;
    assert!(recover(&warm_image).1.replayed == 0);
    // Round-robin sampling so slow host drift cannot bias the
    // warm/cold comparison.
    let mut warm_samples = Vec::with_capacity(INC_SAMPLES);
    let mut cold_samples = Vec::with_capacity(INC_SAMPLES);
    for _ in 0..INC_SAMPLES {
        let t = Instant::now();
        let _ = recover(&warm_image);
        warm_samples.push(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        let _ = recover(&cold_image);
        cold_samples.push(t.elapsed().as_micros() as u64);
    }
    let warm = Stats::from_samples(warm_samples);
    let cold = Stats::from_samples(cold_samples);
    let wal_mb = replayed_bytes as f64 / (1024.0 * 1024.0);
    let marginal_ms_per_mb = (cold.p50_us.saturating_sub(warm.p50_us)) as f64 / 1_000.0 / wal_mb;
    assert!(
        cold.p50_us > warm.p50_us,
        "a fresh checkpoint must bound recovery: warm p50 {}µs vs cold {}µs",
        warm.p50_us,
        cold.p50_us
    );
    assert!(
        marginal_ms_per_mb <= SLO_MS_PER_MB,
        "recovery SLO blown: {marginal_ms_per_mb:.1} ms/MB of WAL > {SLO_MS_PER_MB} ms/MB"
    );
    println!(
        "recovery_slo: {rec_facts} facts, {wal_mb:.2} MB WAL, warm p50 {}µs, cold p50 {}µs, \
         marginal {marginal_ms_per_mb:.1} ms/MB (SLO {SLO_MS_PER_MB})",
        warm.p50_us, cold.p50_us
    );

    format!(
        "{{\n    \"snapshot_open\":{{\"facts_small\":{facts_small},\
         \"facts_large\":{facts_large},\"opens_per_sample\":{OPENS_PER_SAMPLE},\
         \"small_batch_us\":{{{}}},\"large_batch_us\":{{{}}}}},\
         \n    \"recovery_slo\":{{\"facts\":{rec_facts},\"transactions\":{transactions},\
         \"replayed_bytes\":{replayed_bytes},\"wal_mb\":{wal_mb:.3},\
         \"warm_us\":{{{}}},\"cold_us\":{{{}}},\
         \"marginal_ms_per_mb\":{marginal_ms_per_mb:.2},\"slo_ms_per_mb\":{SLO_MS_PER_MB}}}\n  }}",
        small.json_fields(),
        large.json_fields(),
        warm.json_fields(),
        cold.json_fields()
    )
}

/// Live metric streaming overhead: the same committed workload through
/// the networked front door with and without a `WatchMetrics`
/// subscriber on a 100ms interval. The workload is WAL-sync-bound
/// (per-op commits against a journal with a fixed sync latency). Each
/// sample is timed from service boot until its sessions have closed;
/// a subscribed sample then waits, untimed, for its first pushed delta
/// before teardown, so every subscribed sample streams at least one.
/// The gate asserts the subscribed run's median stays within 5% of the
/// baseline. Returns the `streaming_overhead` JSON object.
fn streaming_overhead() -> String {
    use dme_server::NetServer;
    use std::time::Duration;

    const SESSIONS_N: usize = 4;
    const OPS_EACH: usize = 48;
    const SYNC_DELAY_US: u64 = 400;
    const INTERVAL_MS: u32 = 100;

    let cfg = dme_workload::ShopConfig {
        employees: 2 * SESSIONS_N,
        machines: 0,
        supervisions: 0,
        seed: 11,
    };
    let initial = dme_workload::graph_state(cfg);
    let toggle = |k: usize, insert: bool| {
        let assoc = Association::new(
            "supervise",
            [
                (
                    "agent",
                    EntityRef::new("employee", Atom::str(format!("E{:05}", 2 * k))),
                ),
                (
                    "object",
                    EntityRef::new("employee", Atom::str(format!("E{:05}", 2 * k + 1))),
                ),
            ],
        );
        if insert {
            GraphOp::InsertAssociation(assoc)
        } else {
            GraphOp::DeleteAssociation(assoc)
        }
    };

    // One observer per mode, shared across samples, so the streamed
    // delta count accumulates over the whole subscribed column.
    let baseline_obs = Observer::new(RingSink::with_capacity(64));
    let watching_obs = Observer::new(RingSink::with_capacity(64));
    let sample = |watch: bool| {
        let obs = if watch { &watching_obs } else { &baseline_obs };
        let t = Instant::now();
        let service = SessionService::new(
            initial.clone(),
            Vec::new(),
            ServiceConfig {
                commit_mode: CommitMode::PerOp,
                obs: obs.clone(),
                ..ServiceConfig::default()
            },
            Box::new(MemDevice::new().with_sync_delay(Duration::from_micros(SYNC_DELAY_US))),
            Box::new(MemDevice::new()),
        )
        .expect("service boots");
        let server = NetServer::serve(service.clone());
        let client = server.connect().expect("connect");
        let subscription = watch.then(|| {
            client
                .watch_metrics(INTERVAL_MS)
                .expect("subscription opens")
        });
        std::thread::scope(|scope| {
            for k in 0..SESSIONS_N {
                let client = &client;
                scope.spawn(move || {
                    let sess = client
                        .open_session(SessionKind::Graph)
                        .expect("session admits");
                    for i in 0..OPS_EACH {
                        sess.submit_graph(vec![toggle(k, i % 2 == 0)])
                            .expect("disjoint toggles commit");
                    }
                    sess.close().expect("graceful teardown");
                });
            }
        });
        // The clock stops once the sessions have closed, at the same
        // point in both modes; what follows is untimed.
        let elapsed_us = t.elapsed().as_micros() as u64;
        assert_eq!(
            service.committed_history().len(),
            SESSIONS_N * OPS_EACH,
            "every submission commits"
        );
        // A sample lasts about one push interval, so it may end before
        // the first push; the pusher sends on every interval, so this
        // waits at most about one interval for it.
        if let Some(subscription) = &subscription {
            subscription
                .recv_blocking()
                .expect("the subscription streams a delta");
        }
        drop(subscription);
        drop(client);
        server.shutdown();
        elapsed_us
    };
    // The modes are sampled interleaved, alternating which runs first
    // each round (as the mini configs are sampled round-robin): on a
    // busy shared host a slow stretch then lands on both columns
    // instead of biasing the comparison against one.
    let mut baseline_us = Vec::with_capacity(SAMPLES);
    let mut watching_us = Vec::with_capacity(SAMPLES);
    for round in 0..SAMPLES {
        let watch_first = round % 2 == 1;
        for watch in [watch_first, !watch_first] {
            let us = sample(watch);
            if watch {
                watching_us.push(us);
            } else {
                baseline_us.push(us);
            }
        }
    }
    let baseline = Stats::from_samples(baseline_us);
    let watching = Stats::from_samples(watching_us);
    let baseline_deltas = baseline_obs.counter(Counter::MetricsDeltasStreamed);
    let deltas = watching_obs.counter(Counter::MetricsDeltasStreamed);
    assert_eq!(baseline_deltas, 0, "no pusher without a subscriber");
    assert!(
        deltas >= SAMPLES as u64,
        "subscribed runs streamed only {deltas} deltas across {SAMPLES} samples"
    );
    let overhead_pct = (watching.median_us as f64 / baseline.median_us.max(1) as f64 - 1.0) * 100.0;
    println!(
        "streaming/baseline: {}µs  streaming/watch_{INTERVAL_MS}ms: {}µs \
         ({overhead_pct:+.2}%, {deltas} deltas streamed)",
        baseline.median_us, watching.median_us
    );
    assert!(
        watching.median_us as f64 <= baseline.median_us as f64 * 1.05,
        "metric streaming overhead regression: watch {}µs > baseline {}µs (+5%)",
        watching.median_us,
        baseline.median_us
    );
    println!(
        "streaming overhead gate: watch {}µs <= baseline {}µs (+5%) ok",
        watching.median_us, baseline.median_us
    );
    format!(
        "{{\"sessions\":{SESSIONS_N},\"txns\":{},\"sync_delay_us\":{SYNC_DELAY_US},\
         \"interval_ms\":{INTERVAL_MS},\"deltas_streamed\":{deltas},\
         \"overhead_pct\":{overhead_pct:.3},\
         \"baseline\":{{{}}},\"watching\":{{{}}}}}",
        SESSIONS_N * OPS_EACH,
        baseline.json_fields(),
        watching.json_fields()
    )
}

/// Cold-vs-warm single-operation re-check on a 10⁴-state scenario.
/// Returns the `incremental_recheck` JSON object and asserts the ≥10×
/// bar — this is the regression gate for the incremental session.
fn incremental_recheck() -> String {
    use dme_core::IncrementalChecker;
    use dme_workload::scenario::{Mutation, Scenario, ScenarioConfig};

    // 2^14 = 16384 > 10^4 states; the composite operations are the
    // mutation targets — swapping one composite's direction changes its
    // label (one column recomputed) without changing the reachable
    // state set (the single-fact toggles already span the powerset), so
    // the mutant stays pairable against the base.
    let config = ScenarioConfig {
        composite_ops: INC_SAMPLES,
        ..ScenarioConfig::sized(0x1AC5, 10_000)
    };
    let base = Scenario::generate(config);
    let states = 1usize << config.toggles;
    let cap = states + 1;
    let kind = EquivKind::Isomorphic;
    let first_composite = base.ops.len() - config.composite_ops;
    let m = base.model("left");

    let mut session = IncrementalChecker::<FactBase, FactBase>::new();
    session
        .check(&m, &base.model("right"), kind, cap)
        .expect("priming check runs");

    let mut warm_times = Vec::with_capacity(INC_SAMPLES);
    let mut cold_times = Vec::with_capacity(INC_SAMPLES);
    for sample in 0..INC_SAMPLES {
        let mutant = base.mutate(Mutation::SwapOpDirection(first_composite + sample));
        let n = mutant.model("right");
        let t = Instant::now();
        let warm = session
            .check(&m, &n, kind, cap)
            .expect("incremental re-check runs");
        warm_times.push(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        let cold = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(cap)
            .parallel(ParallelConfig::with_threads(1))
            .run()
            .expect("cold full check runs");
        cold_times.push(t.elapsed().as_micros() as u64);
        assert_eq!(
            warm, cold,
            "incremental verdict differs from the cold full check"
        );
    }
    let warm = Stats::from_samples(warm_times);
    let cold = Stats::from_samples(cold_times);
    let speedup = cold.median_us as f64 / warm.median_us.max(1) as f64;
    let cache = session.stats();
    println!(
        "states={states} ops={}: cold {}µs, warm {}µs ({speedup:.1}×; \
         verdict hit rate {:.3}, transition reuse rate {:.3})",
        base.ops.len(),
        cold.median_us,
        warm.median_us,
        cache.verdict_hit_rate(),
        cache.transition_reuse_rate()
    );
    assert!(
        speedup >= 10.0,
        "incremental re-check regression: warm single-op re-check is only \
         {speedup:.1}× faster than a cold full check (bar: 10×; cold {}µs, warm {}µs)",
        cold.median_us,
        warm.median_us
    );
    format!(
        "{{\"states\":{states},\"ops\":{},\"samples\":{INC_SAMPLES},\
         \"cold\":{{{}}},\"warm\":{{{}}},\"speedup\":{speedup:.2},\
         \"verdict_cache_hit_rate\":{:.6},\"transition_reuse_rate\":{:.6},\
         \"verdict_cache_hits\":{},\"verdict_cache_misses\":{},\
         \"cache_invalidations\":{},\"transitions_reused\":{},\
         \"transitions_recomputed\":{},\"pairings_reused\":{}}}",
        base.ops.len(),
        cold.json_fields(),
        warm.json_fields(),
        cache.verdict_hit_rate(),
        cache.transition_reuse_rate(),
        cache.verdict_hits,
        cache.verdict_misses,
        cache.invalidations,
        cache.transitions_reused,
        cache.transitions_recomputed,
        cache.pairings_reused
    )
}

/// Symbolic find mode vs full enumeration on adversarial mutants.
///
/// Each size takes a generated toggle scenario and renames the binding
/// of operation 1 — the delete of the first toggle. The renamed delete
/// toggles a fact nothing can insert, so the mutant operation errors on
/// every state while the closure (and hence the pairing) is untouched:
/// a clean Definition-2 counterexample. The symbolic tier's find mode
/// locates it at bound 2 — the broken delete differs from every
/// opposite operation at the empty state or a depth-1 neighbor, and
/// twin-first probing dismisses each matched twin with one UNSAT query
/// — without ever enumerating the closure. The enumerative side must
/// build both 2^k-state closures before it can compare anything.
///
/// The enumerative leg runs under a node [`dme_core::CheckBudget`]. A fixture
/// that exhausts the budget records a *skipped* row (null enumerative
/// columns, a `skipped` marker) instead of aborting the sweep, so the
/// largest size shows the symbolic tier answering where enumeration
/// cannot finish. Returns the `symbolic_crossover` JSON rows and
/// asserts the ≥5× bar at the largest size the enumerative side
/// completed.
fn symbolic_crossover() -> Vec<String> {
    use dme_core::symbolic::SymbolicChecker;
    use dme_core::{CheckBudget, Verdict};
    use dme_workload::scenario::{Mutation, Scenario, ScenarioConfig};

    /// Cold full checks of a 2^14-state pair dominate; keep samples low.
    const CROSS_SAMPLES: usize = 5;
    /// Generous enough for the 2^14 fixture's two closures, an order of
    /// magnitude below what the 2^17 fixture needs.
    const NODE_BUDGET: u64 = 5_000_000;

    let mut rows = Vec::new();
    let mut largest_completed: Option<(usize, f64)> = None;
    let mut skipped = 0usize;
    for k in [8usize, 11, 14, 17] {
        let config = ScenarioConfig::sized(0x0C50 + k as u64, 1 << k);
        let base = Scenario::generate(config);
        let mutant = base.mutate(Mutation::RenameBinding(1));
        let states = 1usize << config.toggles;
        let ops = base.ops.len();

        let ms = base.symbolic_spec("left");
        let ns = mutant.symbolic_spec("right");
        let mut label = String::new();
        let sym = time_us(CROSS_SAMPLES, || {
            let found = SymbolicChecker::new(&ms, &ns)
                .bound(2)
                .find_counterexample()
                .expect("toggle scenarios encode")
                .expect("the renamed delete is unmatched");
            label = found.label.clone();
        });

        let m = base.model("left");
        let n = mutant.model("right");
        let cap = states + 1;
        let run_enum = || {
            Checker::new(&m, &n)
                .tier(Tier::Isomorphic)
                .state_cap(cap)
                .parallel(ParallelConfig::with_threads(1).budget(CheckBudget::nodes(NODE_BUDGET)))
                .run()
                .expect("the mutant stays pairable against the base")
        };
        // The first sample decides whether the fixture fits the budget;
        // re-timing a skip would only repeat the exhaustion.
        let t = Instant::now();
        let first = run_enum();
        let first_us = t.elapsed().as_micros() as u64;
        if let Verdict::BudgetExhausted { nodes_explored, .. } = first {
            skipped += 1;
            println!(
                "states={states} ops={ops}: symbolic {}µs, enumerative SKIPPED \
                 (budget exhausted after {nodes_explored} nodes)",
                sym.median_us
            );
            rows.push(format!(
                "{{\"states\":{states},\"ops\":{ops},\"unmatched\":\"{label}\",\
                 \"symbolic\":{{{}}},\"enumerative\":null,\"speedup\":null,\
                 \"skipped\":\"budget exhausted after {nodes_explored} nodes\",\
                 \"node_budget\":{NODE_BUDGET}}}",
                sym.json_fields()
            ));
            continue;
        }
        assert!(
            !first.is_equivalent(),
            "the renamed delete must yield a counterexample, got {first}"
        );
        let mut samples = vec![first_us];
        for _ in 1..CROSS_SAMPLES {
            let t = Instant::now();
            let verdict = run_enum();
            samples.push(t.elapsed().as_micros() as u64);
            assert!(!verdict.is_equivalent());
        }
        let enumerative = Stats::from_samples(samples);
        let speedup = enumerative.median_us as f64 / sym.median_us.max(1) as f64;
        largest_completed = Some((states, speedup));
        println!(
            "states={states} ops={ops}: symbolic {}µs, enumerative {}µs \
             ({speedup:.1}×, unmatched `{label}`)",
            sym.median_us, enumerative.median_us
        );
        rows.push(format!(
            "{{\"states\":{states},\"ops\":{ops},\"unmatched\":\"{label}\",\
             \"symbolic\":{{{}}},\"enumerative\":{{{}}},\"speedup\":{speedup:.2},\
             \"skipped\":null,\"node_budget\":{NODE_BUDGET}}}",
            sym.json_fields(),
            enumerative.json_fields()
        ));
    }

    // The crossover gate: at the largest size the enumerative side
    // finished, symbolic find mode must be at least 5× faster — and the
    // sweep must have reached a size the enumerative side could not.
    let (states, speedup) =
        largest_completed.expect("at least one size completes under the node budget");
    assert!(
        speedup >= 5.0,
        "symbolic crossover regression: find mode is only {speedup:.1}× faster \
         than full enumeration at {states} states (bar: 5×)"
    );
    assert!(
        skipped > 0,
        "the largest fixture was expected to exhaust the enumerative node budget; \
         raise the sweep size or lower NODE_BUDGET"
    );
    println!(
        "symbolic crossover gate: {speedup:.1}× >= 5× at {states} states, \
         {skipped} size(s) beyond enumerative reach"
    );
    rows
}

/// The percentile fragment for one latency histogram, as recorded by
/// the service's observer across all sampled runs.
fn json_histogram(name: &str, snap: &dme_core::obs::HistogramSnapshot) -> String {
    format!(
        "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
         \"max_us\":{}}}",
        snap.count,
        snap.p50(),
        snap.p95(),
        snap.p99(),
        snap.max
    )
}

fn main() {
    let root = repo_root();
    let kind = EquivKind::StateDependent { max_depth: 3 };
    let mut fixtures: Vec<Timing> = Vec::new();

    // ---- Fixture timings (the Criterion parallel_equiv group) -------
    println!("== fixtures (median of {SAMPLES}) ==");
    let (ms, ns) = d6_fixture();
    for threads in [1usize, 2, 4] {
        let config = ParallelConfig::with_threads(threads);
        let stats = time_us(SAMPLES, || {
            let verdict = Checker::data_models(&ms, &ns)
                .tier(Tier::DataModel { kind })
                .state_cap(STATE_CAP)
                .parallel(config)
                .run()
                .expect("runs");
            assert!(!verdict.is_equivalent());
        });
        println!("data_model/parallel/t{threads}: {}µs", stats.median_us);
        fixtures.push(Timing {
            name: format!("data_model/parallel/t{threads}"),
            stats,
        });
    }

    let m = rel_model("mini-rel", witness::mini_relational_schema(), 2);
    let schema = Arc::new(witness::mini_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    let n = graph_model("mini-graph", GraphState::empty(schema), ops);
    // The mini configs are sampled round-robin (t1, t2, t4 per round)
    // rather than config-by-config: the scaling guard below compares
    // these medians, and on a busy shared host a whole-block schedule
    // lets slow drift land on one config and bias the comparison.
    let mini_configs: [(&str, usize); 3] = [
        ("mini_machine_shop/parallel/t1", 1),
        ("mini_machine_shop/parallel/t2", 2),
        ("mini_machine_shop/parallel/t4", 4),
    ];
    let mut mini_samples: Vec<Vec<u64>> = vec![Vec::new(); mini_configs.len()];
    for _ in 0..SAMPLES {
        for (i, (_, threads)) in mini_configs.iter().enumerate() {
            let checker = Checker::new(&m, &n)
                .tier(Tier::StateDependent { max_depth: 3 })
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(*threads));
            let t = Instant::now();
            let verdict = checker.run().expect("runs");
            mini_samples[i].push(t.elapsed().as_micros() as u64);
            assert!(verdict.is_equivalent());
        }
    }
    for ((name, _), samples) in mini_configs.iter().zip(mini_samples) {
        let stats = Stats::from_samples(samples);
        println!("{name}: {}µs", stats.median_us);
        fixtures.push(Timing {
            name: (*name).into(),
            stats,
        });
    }

    // ---- Scaling guard: more threads must never cost wall-clock ------
    // The regression this pins down: before the adaptive sequential
    // fallback, a t4 run on the largest fixture was *slower* than t1
    // (thread spawn + merge overhead on sub-threshold work items). A
    // 10% tolerance absorbs timer noise at this sample size.
    let median_of = |name: &str| {
        fixtures
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("fixture {name} was timed"))
            .stats
            .median_us
    };
    let mini_t1 = median_of("mini_machine_shop/parallel/t1");
    let mini_t4 = median_of("mini_machine_shop/parallel/t4");
    assert!(
        mini_t4 as f64 <= mini_t1 as f64 * 1.10,
        "parallel scaling regression: mini_machine_shop t4 {mini_t4}µs > t1 {mini_t1}µs (+10%)"
    );
    println!("scaling guard: mini t4 {mini_t4}µs <= t1 {mini_t1}µs (+10%) ok");

    // ---- Observer overhead on the mini machine shop ------------------
    // The acceptance bar: a disabled observer (no sink) must be free —
    // every instrumentation site reduces to one branch on a None.
    println!("== observer overhead ==");
    let run_with = |observer: Observer| {
        let verdict = Checker::new(&m, &n)
            .tier(Tier::StateDependent { max_depth: 3 })
            .state_cap(STATE_CAP)
            .parallel(ParallelConfig::with_threads(2))
            .observer(observer)
            .run()
            .expect("runs");
        assert!(verdict.is_equivalent());
    };
    let ovh_no_sink = time_us(SAMPLES, || run_with(Observer::disabled()));
    let ovh_ring = time_us(SAMPLES, || {
        run_with(Observer::new(RingSink::with_capacity(4096)))
    });
    let transcript_path = root.join("target/equiv_transcript.jsonl");
    let ovh_jsonl = time_us(SAMPLES, || match JsonLinesSink::create(&transcript_path) {
        Ok(sink) => run_with(Observer::new(sink)),
        Err(e) => panic!(
            "cannot create transcript at {}: {e}",
            transcript_path.display()
        ),
    });
    // The acceptance bar in numbers: an enabled observer adds the ring
    // writes plus the latency-histogram atomics; the delta over the
    // disabled run is the per-run instrumentation cost.
    let hist_overhead_us = ovh_ring.median_us.saturating_sub(ovh_no_sink.median_us);
    println!(
        "no_sink: {}µs  ring: {}µs  jsonl: {}µs  (histogram+ring overhead: {hist_overhead_us}µs)",
        ovh_no_sink.median_us, ovh_ring.median_us, ovh_jsonl.median_us
    );
    println!("transcript: {}", transcript_path.display());
    // The gate: a ring sink is in-memory writes plus histogram atomics,
    // so its cost must stay within noise of the disabled observer. 15%
    // absorbs timer jitter at this sample size on a shared host.
    assert!(
        ovh_ring.median_us as f64 <= ovh_no_sink.median_us as f64 * 1.15,
        "observer overhead regression: ring {}µs > no_sink {}µs (+15%)",
        ovh_ring.median_us,
        ovh_no_sink.median_us
    );
    println!(
        "observer overhead gate: ring {}µs <= no_sink {}µs (+15%) ok",
        ovh_ring.median_us, ovh_no_sink.median_us
    );

    // ---- Scaling sweeps: states × ops × threads ----------------------
    println!("== scaling sweeps ==");
    let mut sweeps: Vec<String> = Vec::new();
    for facts in [3usize, 4, 5] {
        let m = powerset_model("sweep-m", facts);
        let n = powerset_model("sweep-n", facts);
        for threads in [1usize, 2, 4] {
            let obs = Observer::new(RingSink::with_capacity(1024));
            let checker = Checker::new(&m, &n)
                .tier(Tier::StateDependent { max_depth: 2 })
                .state_cap(STATE_CAP)
                .parallel(ParallelConfig::with_threads(threads))
                .observer(obs.clone());
            let stats = time_us(SAMPLES, || {
                assert!(checker.run().expect("runs").is_equivalent());
            });
            let states = 1usize << facts;
            let ops = 2 * facts;
            let nodes = obs.counter(Counter::NodesExpanded) / SAMPLES as u64;
            println!(
                "facts={facts} states={states} ops={ops} threads={threads}: \
                 {}µs ({nodes} nodes/run)",
                stats.median_us
            );
            sweeps.push(format!(
                "{{\"facts\":{facts},\"states\":{states},\"ops\":{ops},\
                 \"threads\":{threads},{},\"nodes_expanded\":{nodes}}}",
                stats.json_fields()
            ));
        }
    }

    // ---- Closure scaling: arena hit rate and per-state cost ----------
    // The workload crate's supervision-toggle knob: k disjoint pairs
    // give a 2^k-state powerset closure, so k = 7/10/13 sweeps the
    // closure enumerator from ~10^2 to ~10^4 states. Alongside the
    // medians we record the arena's probe economics (hit rate) and the
    // amortized cost per interned state.
    println!("== closure scaling ==");
    let mut closure_rows: Vec<String> = Vec::new();
    for k in [7usize, 10, 13] {
        let cfg = dme_workload::ShopConfig {
            employees: 2 * k,
            machines: 0,
            supervisions: 0,
            seed: 42,
        };
        let ops = dme_workload::supervision_closure_ops(cfg, k);
        let model = graph_model(
            format!("closure-2^{k}"),
            dme_workload::graph_state(cfg),
            ops,
        );
        let cap = (1usize << k) + 1;
        let mut arena_stats = dme_core::ArenaStats::default();
        let stats = time_us(SAMPLES, || {
            let closure = model.closure(cap).expect("closure fits under its cap");
            assert_eq!(closure.len(), 1 << k, "closure is the full powerset");
            arena_stats = closure.arena.stats();
        });
        let states = 1usize << k;
        let ns_per_state = stats.median_us * 1_000 / states as u64;
        println!(
            "k={k} states={states}: {}µs ({ns_per_state}ns/state, \
             hit rate {:.3}, {} hits / {} misses)",
            stats.median_us,
            arena_stats.hit_rate(),
            arena_stats.hits,
            arena_stats.misses
        );
        closure_rows.push(format!(
            "{{\"k\":{k},\"states\":{states},\"ops\":{},{},\
             \"ns_per_state\":{ns_per_state},\"arena_hits\":{},\"arena_misses\":{},\
             \"arena_hit_rate\":{:.6}}}",
            2 * k,
            stats.json_fields(),
            arena_stats.hits,
            arena_stats.misses,
            arena_stats.hit_rate()
        ));
    }

    // ---- Incremental re-check: warm session vs cold full check -------
    // The tentpole guard: on a 2^14-state generated scenario, mutating
    // one operation and re-checking through a warm IncrementalChecker
    // session must be at least 10× faster than a cold full check of the
    // same mutant — and return the byte-identical verdict. Every sample
    // applies a *fresh* mutation (a different operation each time), so
    // the warm path really pays for the invalidated column instead of
    // replaying a memoized one.
    println!("== incremental re-check ==");
    let incremental_row = incremental_recheck();

    // ---- Symbolic crossover: find mode vs full enumeration -----------
    // The symbolic-tier guard: on adversarial RenameBinding mutants the
    // bounded SAT find mode must locate the counterexample ≥5× faster
    // than full enumeration, and keep answering at closure sizes where
    // the enumerative side exhausts its node budget (skipped rows).
    println!("== symbolic crossover ==");
    let crossover_rows = symbolic_crossover();

    // ---- Session-service throughput: group vs per-op commit ----------
    println!("== service throughput ==");
    let service_rows = service_throughput();

    // ---- Networked front door: open-loop shard scaling ---------------
    println!("== service scaling (networked, open loop) ==");
    let scaling_rows = service_scaling(&root);

    // ---- MVCC storage engine: snapshot opens + recovery SLO ----------
    println!("== storage engine (MVCC) ==");
    let storage_row = storage_engine();

    // ---- Live metric streaming overhead ------------------------------
    // The observability-plane guard: a `WatchMetrics` subscriber on a
    // 100ms interval must cost under 5% of committed throughput.
    println!("== streaming overhead ==");
    let streaming_row = streaming_overhead();

    // ---- One instrumented run's phase report, for the record ---------
    let ring = RingSink::with_capacity(4096);
    let obs = Observer::new(ring.clone());
    Checker::new(&m, &n)
        .tier(Tier::StateDependent { max_depth: 3 })
        .state_cap(STATE_CAP)
        .parallel(ParallelConfig::with_threads(2))
        .observer(obs.clone())
        .run()
        .expect("runs");
    let report = Report::from_events(&ring.events()).with_totals(obs.counters());
    println!("== mini machine shop phase report ==\n{report}");

    // ---- BENCH_equiv.json --------------------------------------------
    let mut out = String::from("{\n  \"suite\": \"parallel_equiv regression\",\n");
    out.push_str(&format!("  \"samples\": {SAMPLES},\n  \"fixtures\": {{"));
    for (i, t) in fixtures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json_timing(t));
    }
    out.push_str("\n  },\n  \"observer_overhead\": {");
    out.push_str(&format!(
        "\n    \"no_sink\": {{{}}},\n    \"ring_sink\": {{{}}},\
         \n    \"jsonl_sink\": {{{}}},\
         \n    \"histogram_overhead_us\": {hist_overhead_us}\n  }},\n  \"sweeps\": [",
        ovh_no_sink.json_fields(),
        ovh_ring.json_fields(),
        ovh_jsonl.json_fields()
    ));
    for (i, s) in sweeps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(s);
    }
    out.push_str("\n  ],\n  \"closure_scaling\": [");
    for (i, s) in closure_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(s);
    }
    out.push_str("\n  ],\n  \"incremental_recheck\": ");
    out.push_str(&incremental_row);
    out.push_str(",\n  \"symbolic_crossover\": [");
    for (i, s) in crossover_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(s);
    }
    out.push_str("\n  ],\n  \"service_throughput\": [");
    for (i, s) in service_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(s);
    }
    out.push_str("\n  ],\n  \"service_scaling\": [");
    for (i, s) in scaling_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(s);
    }
    out.push_str("\n  ],\n  \"storage_engine\": ");
    out.push_str(&storage_row);
    out.push_str(",\n  \"streaming_overhead\": ");
    out.push_str(&streaming_row);
    out.push_str(&format!(",\n  \"report\": {}\n}}\n", report.to_json()));
    let bench_path = root.join("BENCH_equiv.json");
    std::fs::write(&bench_path, out).expect("write BENCH_equiv.json");
    println!("wrote {}", bench_path.display());
}

/// The repository root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}
