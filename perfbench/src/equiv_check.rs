//! `equiv_check`: a schema designer's audit batch, then a stream of warm
//! re-checks. No service or storage layer runs; the engine's closure,
//! reachability, pairing and signature code does all the work.
//!
//! The audit batch holds four cold checks: the mini machine shop at
//! Definition 5 (depth 3, equivalent), the E-D6 data-model check (not
//! equivalent), a generated 2¹²-state scenario under Definition 2
//! (equivalent), and a symbolic find-mode check on a 2¹⁴-state
//! `RenameBinding` mutant (counterexample found). The enumerative checks
//! run through `Checker` on the default route and again on two engine
//! threads. The re-check stream then runs warm `IncrementalChecker`
//! checks of every single-op mutant of a generated 2¹⁰-state scenario,
//! round after round in seeded orders; each round starts a fresh session
//! so no verdict is served twice.

use std::collections::BTreeMap;
use std::time::Instant;

use dme_core::enumerate::{enumerate_graph_ops, enumerate_rel_ops};
use dme_core::model::{graph_model, relational_model, FiniteModel};
use dme_core::obs::{Counter, Observer, Report, RingSink};
use dme_core::symbolic::{SymbolicChecker, SymbolicSpec};
use dme_core::{
    witness, CacheStats, CheckError, Checker, EquivKind, IncrementalChecker, ParallelConfig, Tier,
    Verdict,
};
use dme_graph::{GraphOp, GraphState};
use dme_logic::FactBase;
use dme_relation::{RelOp, RelationState};
use dme_workload::scenario::{Mutation, Scenario, ScenarioConfig, ScenarioOp};

use crate::stats::{median, quantile, tail, timed, Rng};
use crate::trace::{now_ns, Tracer};
use crate::{Args, Outcome};

const STATE_CAP: usize = 4_000;
const SCENARIO_STATES: usize = 1 << 12;
const SYMBOLIC_STATES: usize = 1 << 14;
/// The re-check scenario: small enough that a run holds well over 200
/// warm checks, so their p95 has ten samples beyond it.
const RECHECK_STATES: usize = 1 << 10;
/// Composite operations in the re-check scenario, one mutant each.
const COMPOSITES: usize = 16;
/// Consecutive re-checks averaged into one `op_*` sample. On a shared
/// VM a share of single re-checks, varying from run to run, runs about a
/// third faster, so the per-check median jumps between the two levels;
/// the mean of four moves far less.
const RECHECK_GROUP: usize = 4;
/// Set-ups before the first round; every round adds [`SETUP_SPARES`].
const SETUP_REPS: usize = 5;
const SETUP_SPARES: usize = 5;
/// Audit batches per second of run time (at least three).
const AUDIT_BATCHES_PER_S: f64 = 0.35;
/// Share of the run spent on the re-check stream.
const RECHECK_SHARE: f64 = 0.4;
const KIND: EquivKind = EquivKind::Isomorphic;
/// The generated scenarios are fixed: their cost depends on their shape,
/// which varies with the generator seed by more than any change worth
/// measuring. The run seed orders the re-check stream.
const SCENARIO_SEED: u64 = 0x5CE7;

type Scen = FiniteModel<FactBase, ScenarioOp>;
type Checked = Result<Verdict, CheckError>;

struct Fixtures {
    mini_rel: FiniteModel<RelationState, RelOp>,
    mini_graph: FiniteModel<GraphState, GraphOp>,
    d6_rel: Vec<FiniteModel<RelationState, RelOp>>,
    d6_graph: Vec<FiniteModel<GraphState, GraphOp>>,
    left: Scen,
    right: Scen,
    /// The re-check scenario's two sides; mutants replace the right.
    base: Scen,
    base_right: Scen,
    sym_left: SymbolicSpec,
    sym_right: SymbolicSpec,
    /// Single-op mutants of the re-check scenario.
    mutants: Vec<Scen>,
}

fn rel_model(
    name: &str,
    schema: dme_relation::RelationalSchema,
) -> FiniteModel<RelationState, RelOp> {
    let ops = enumerate_rel_ops(&schema, 2);
    relational_model(name, RelationState::empty(std::sync::Arc::new(schema)), ops)
}

fn setup() -> Fixtures {
    let mini_rel = rel_model("mini-rel", witness::mini_relational_schema());
    let schema = std::sync::Arc::new(witness::mini_graph_schema());
    let ops = enumerate_graph_ops(&schema);
    let mini_graph = graph_model("mini-graph", GraphState::empty(schema), ops);
    let d6_rel = vec![
        rel_model("micro-rel", witness::micro_relational_schema()),
        rel_model(
            "micro-rel-supervisors-supervised",
            witness::micro_relational_schema_supervisors_supervised(),
        ),
    ];
    let d6_graph = witness::all_micro_graph_schemas()
        .into_iter()
        .enumerate()
        .filter(|(_, schema)| schema.participations().all(|(_, p)| !p.total))
        .map(|(i, schema)| {
            let schema = std::sync::Arc::new(schema);
            let ops = enumerate_graph_ops(&schema);
            graph_model(format!("graph-{i}"), GraphState::empty(schema), ops)
        })
        .collect();
    let scenario = Scenario::generate(ScenarioConfig::sized(SCENARIO_SEED, SCENARIO_STATES));
    let sym = Scenario::generate(ScenarioConfig::sized(SCENARIO_SEED, SYMBOLIC_STATES));
    let sym_mutant = sym.mutate(Mutation::RenameBinding(1));
    // The re-check scenario carries composite two-fact operations; the
    // mutants swap one composite's direction, which changes that
    // operation's label and transition column but not the reachable
    // states: the single-op edit the incremental session is built to
    // absorb. (Swapping a plain toggle or renaming a binding costs 3-10x
    // more, so mixing them would make the median jump between modes.)
    let config = ScenarioConfig {
        composite_ops: COMPOSITES,
        ..ScenarioConfig::sized(SCENARIO_SEED, RECHECK_STATES)
    };
    let recheck = Scenario::generate(config);
    let first = recheck.ops.len() - COMPOSITES;
    let mutants = (first..recheck.ops.len())
        .map(|i| recheck.mutate(Mutation::SwapOpDirection(i)).model("right"))
        .collect();
    Fixtures {
        mini_rel,
        mini_graph,
        d6_rel,
        d6_graph,
        left: scenario.model("left"),
        right: scenario.model("right"),
        base: recheck.model("left"),
        base_right: recheck.model("right"),
        sym_left: sym.symbolic_spec("left"),
        sym_right: sym_mutant.symbolic_spec("right"),
        mutants,
    }
}

fn fmt_result(r: &Checked) -> String {
    format!("{r:?}")
}

/// Runs `check` on the default route and on two engine threads under
/// one span each; returns (default-route result, both routes agree).
fn both_routes(
    tracer: &Tracer,
    batch: u64,
    names: [&'static str; 2],
    check: impl Fn(Option<ParallelConfig>) -> Checked,
) -> (Checked, bool) {
    let t = now_ns();
    let a = check(None);
    let mid = now_ns();
    tracer.record(names[0], 0, batch, t, mid);
    let b = check(Some(ParallelConfig::with_threads(2)));
    tracer.record(names[1], 0, batch, mid, now_ns());
    let agree = fmt_result(&a) == fmt_result(&b);
    (a, agree)
}

/// One audit batch: (check, verdict as expected on both routes).
fn audit(f: &Fixtures, obs: &Observer, tracer: &Tracer, batch: u64) -> Vec<(&'static str, bool)> {
    let start = now_ns();
    // The default route, or the engine with the given configuration.
    macro_rules! route {
        ($checker:expr, $p:expr) => {
            match $p {
                Some(p) => $checker.parallel(p).run(),
                None => $checker.run(),
            }
        };
    }
    let (mini, mini_agree) = both_routes(
        tracer,
        batch,
        ["audit.mini_shop.default", "audit.mini_shop.threads2"],
        |p| {
            let c = Checker::new(&f.mini_rel, &f.mini_graph)
                .tier(Tier::StateDependent { max_depth: 3 })
                .state_cap(STATE_CAP)
                .observer(obs.clone());
            route!(c, p)
        },
    );
    let (d6, d6_agree) = both_routes(
        tracer,
        batch,
        ["audit.e_d6.default", "audit.e_d6.threads2"],
        |p| {
            let c = Checker::data_models(&f.d6_rel, &f.d6_graph)
                .tier(Tier::DataModel {
                    kind: EquivKind::StateDependent { max_depth: 3 },
                })
                .state_cap(STATE_CAP)
                .observer(obs.clone());
            route!(c, p)
        },
    );
    let (scen, scen_agree) = both_routes(
        tracer,
        batch,
        ["audit.scenario.default", "audit.scenario.threads2"],
        |p| {
            let c = Checker::new(&f.left, &f.right)
                .tier(Tier::Isomorphic)
                .state_cap(SCENARIO_STATES + 1)
                .observer(obs.clone());
            route!(c, p)
        },
    );
    let t = now_ns();
    let found = SymbolicChecker::new(&f.sym_left, &f.sym_right)
        .bound(2)
        .observer(obs.clone())
        .find_counterexample();
    tracer.record("audit.symbolic_find", 0, batch, t, now_ns());
    tracer.record("audit.batch", 0, batch, start, now_ns());
    vec![
        (
            "mini machine shop equivalent at depth 3",
            mini_agree && matches!(&mini, Ok(v) if v.is_equivalent()),
        ),
        (
            "E-D6 data models not equivalent",
            d6_agree && matches!(&d6, Ok(v) if !v.is_equivalent()),
        ),
        (
            "2^12-state scenario isomorphic",
            scen_agree && matches!(&scen, Ok(v) if v.is_equivalent()),
        ),
        (
            "symbolic find mode locates the renamed binding",
            matches!(found, Ok(Some(_))),
        ),
    ]
}

fn add_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        verdict_hits: a.verdict_hits + b.verdict_hits,
        verdict_misses: a.verdict_misses + b.verdict_misses,
        invalidations: a.invalidations + b.invalidations,
        transitions_reused: a.transitions_reused + b.transitions_reused,
        transitions_recomputed: a.transitions_recomputed + b.transitions_recomputed,
        pairings_reused: a.pairings_reused + b.pairings_reused,
    }
}

/// The re-check stream for `secs`: rounds of warm checks of every
/// mutant, each round on a freshly primed session and in a fresh seeded
/// order (a check's cost depends on which mutant the session saw last).
/// Returns per-check (mutant index, result, ms) and the summed cache
/// statistics.
fn recheck_stream(
    f: &Fixtures,
    secs: f64,
    rng: &mut Rng,
    tracer: &Tracer,
) -> (Vec<(usize, String, f64)>, CacheStats) {
    let cap = RECHECK_STATES + 1;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut checks = Vec::new();
    let mut stats = CacheStats::default();
    'rounds: loop {
        let mut session = IncrementalChecker::<FactBase, FactBase>::new();
        // Priming is a cold check, not one of the stream's samples.
        let _ = session.check(&f.base, &f.base_right, KIND, cap);
        let mut order: Vec<usize> = (0..f.mutants.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if Instant::now() >= deadline {
                stats = add_stats(stats, session.stats());
                break 'rounds;
            }
            let t = now_ns();
            let r = session.check(&f.base, &f.mutants[i], KIND, cap);
            let end = now_ns();
            tracer.record("recheck", 0, checks.len() as u64 + 1, t, end);
            checks.push((i, fmt_result(&r), (end - t) as f64 / 1e6));
        }
        stats = add_stats(stats, session.stats());
    }
    (checks, stats)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut f = timed(&mut setup_times, setup);
    for _ in 1..SETUP_REPS {
        drop(f);
        f = timed(&mut setup_times, setup);
    }
    let mut rng = Rng::new(args.seed, 3);
    let audit_batches = ((args.seconds * AUDIT_BATCHES_PER_S).round() as usize).max(3);
    let slice_s = RECHECK_SHARE * args.seconds / audit_batches as f64;
    out.note(format!(
        "equiv_check: {audit_batches} rounds, each an audit batch (mini shop, E-D6 and the \
         2^12 scenario on the default route and 2 threads, symbolic find at 2^14), warm \
         re-checks of {} mutants for {slice_s:.2} s and {SETUP_SPARES} spare set-ups",
        f.mutants.len(),
    ));
    // Audit checks are always timed through spans (a few per batch); the
    // re-check stream records them only in a traced run, which spends the
    // stream of its first half of rounds untraced and of its second half
    // traced; the difference is the tracing overhead.
    let tracer = Tracer::new(true);
    let untraced = Tracer::new(false);
    let traced_from = if args.trace {
        audit_batches / 2
    } else {
        audit_batches
    };
    let mut attempted = 0u64;
    let mut wrong = 0u64;

    // Rounds of an audit batch, a slice of the re-check stream and spare
    // set-ups, so that each kind of work is timed across the whole run. A
    // traced run attaches an observer to collect the engine's own phase
    // report.
    let ring = RingSink::with_capacity(1 << 16);
    let obs = if args.trace {
        Observer::new(ring.clone())
    } else {
        Observer::disabled()
    };
    let mut audit_batch_s = Vec::new();
    let mut audit_wrong = 0u64;
    let (mut checks, mut traced_checks) = (Vec::new(), Vec::new());
    let mut stats = CacheStats::default();
    let mut rates = Vec::with_capacity(audit_batches);
    for batch in 0..audit_batches {
        let t = Instant::now();
        let results = audit(&f, &obs, &tracer, batch as u64 + 1);
        audit_batch_s.push(t.elapsed().as_secs_f64());
        for (what, ok) in results {
            attempted += 1;
            if !ok {
                audit_wrong += 1;
                out.note(format!("audit batch {batch}: unexpected verdict: {what}"));
            }
        }

        let is_traced = batch >= traced_from;
        let stream_tracer = if is_traced { &tracer } else { &untraced };
        let (slice, slice_stats) = recheck_stream(&f, slice_s, &mut rng, stream_tracer);
        // Re-checks per second of checking in this round.
        rates.push(slice.len() as f64 / (slice.iter().map(|c| c.2).sum::<f64>() / 1e3));
        stats = add_stats(stats, slice_stats);
        if is_traced {
            traced_checks.extend(slice);
        } else {
            checks.extend(slice);
        }

        for _ in 0..SETUP_SPARES {
            drop(timed(&mut setup_times, setup));
        }
    }
    out.metric("setup_s", median(&setup_times), "s");
    wrong += audit_wrong;
    out.check(
        format!("audit verdicts as expected on both routes ({audit_wrong} wrong)"),
        audit_wrong == 0,
    );
    // The batch time is the sum over its checks of each check's median
    // time, so one check slowed by a neighbour does not move it.
    let mut per_check: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("audit.") && s.name != "audit.batch")
    {
        per_check
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e9);
    }
    let audit_s: f64 = per_check.values().map(|v| median(v)).sum();
    out.note(format!(
        "audit batches took {:.3}-{:.3} s",
        quantile(&audit_batch_s, 0.0),
        quantile(&audit_batch_s, 1.0)
    ));
    out.metric("audit_s", audit_s, "s");
    out.metric("batch_s", audit_s, "s");
    if args.trace {
        let report = Report::from_events(&ring.events()).with_totals(obs.counters());
        let phase_ms = |names: &[&str]| {
            names
                .iter()
                .filter_map(|n| report.phase(n))
                .map(|p| p.total_micros as f64 / 1e3)
                .sum::<f64>()
                / audit_batches as f64
        };
        out.metric(
            "engine.reachability_ms",
            phase_ms(&["seq/reachability", "par/reachability"]),
            "ms",
        );
        out.metric(
            "engine.pairing_ms",
            phase_ms(&["seq/pairing", "par/pairing"]),
            "ms",
        );
        out.metric(
            "engine.signatures_ms",
            phase_ms(&["seq/signatures", "par/signatures"]),
            "ms",
        );
        out.metric(
            "engine.nodes_expanded",
            obs.counter(Counter::NodesExpanded) as f64 / audit_batches as f64,
            "count",
        );
        out.note(format!("audit phase report, all batches:\n{report}"));
        let t = now_ns();
        let found = SymbolicChecker::new(&f.sym_left, &f.sym_right)
            .bound(2)
            .find_counterexample();
        out.metric("symbolic.find_ms", (now_ns() - t) as f64 / 1e6, "ms");
        attempted += 1;
        wrong += u64::from(!matches!(found, Ok(Some(_))));
        let mut closure_ms = Vec::new();
        let mut last = None;
        for _ in 0..5 {
            let t = now_ns();
            let c = f.left.closure(SCENARIO_STATES + 1);
            closure_ms.push((now_ns() - t) as f64 / 1e6);
            last = c.ok().map(|c| (c.len(), c.arena.stats().hit_rate()));
        }
        let ms = median(&closure_ms);
        if let Some((states, hit_rate)) = last {
            out.metric("closure.ms", ms, "ms");
            out.metric("closure.ns_per_state", ms * 1e6 / states as f64, "ns");
            out.metric("arena.hit_rate", hit_rate, "ratio");
        }
    }

    if args.trace {
        let untraced_p50 = median(&checks.iter().map(|c| c.2).collect::<Vec<_>>());
        let traced_p50 = median(&traced_checks.iter().map(|c| c.2).collect::<Vec<_>>());
        out.metric(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        );
    }
    checks.extend(traced_checks);
    let ms: Vec<f64> = checks.iter().map(|c| c.2).collect();
    let grouped: Vec<f64> = ms
        .chunks_exact(RECHECK_GROUP)
        .map(|g| g.iter().sum::<f64>() / RECHECK_GROUP as f64)
        .collect();
    out.note(format!(
        "re-check stream: {} warm checks, {} groups of {RECHECK_GROUP}",
        ms.len(),
        grouped.len()
    ));
    out.metric("recheck_p50_ms", median(&ms), "ms");
    out.metric("op_p50_ms", median(&grouped), "ms");
    if let Some(v) = tail(&ms, 0.95) {
        out.metric("recheck_p95_ms", v, "ms");
    }
    if let Some(v) = tail(&ms, 0.99) {
        out.metric("recheck_p99_ms", v, "ms");
    }
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric(
        "incremental.transition_reuse_rate",
        stats.transition_reuse_rate(),
        "ratio",
    );
    out.metric(
        "incremental.verdict_hit_rate",
        stats.verdict_hit_rate(),
        "ratio",
    );

    // Every warm verdict must equal the cold verdict of the same mutant.
    let mut cold: Vec<Option<String>> = vec![None; f.mutants.len()];
    let mut recheck_wrong = 0u64;
    for (i, warm, _) in &checks {
        attempted += 1;
        let expect = cold[*i].get_or_insert_with(|| {
            fmt_result(
                &Checker::new(&f.base, &f.mutants[*i])
                    .tier(Tier::from_kind(KIND))
                    .state_cap(RECHECK_STATES + 1)
                    .parallel(ParallelConfig::with_threads(1))
                    .run(),
            )
        });
        if expect != warm {
            recheck_wrong += 1;
        }
    }
    wrong += recheck_wrong;
    out.check(
        format!(
            "{} warm re-check verdicts equal the cold verdicts ({recheck_wrong} differ)",
            checks.len()
        ),
        recheck_wrong == 0,
    );
    out.attempted = attempted;
    out.failed = wrong;
    if args.trace {
        crate::svc::write_spans(&mut out, &tracer, "equiv_check", args.seed);
    }
    out
}
